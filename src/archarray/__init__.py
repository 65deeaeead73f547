"""Hypersurfaces whose orthogonal projection scales volume by a constant.

The classical correspondence between a sphere and its circumscribed
cylinder sends zones to bands of equal area.  This package builds the
family of warped-product hypersurfaces generalizing that property to
arbitrary dimension and codimension, and provides the numerical
machinery to verify it: scaling profiles, convex base geometry,
quadrature, surface sampling, statistical tests, and mesh export.
"""

from .array import (
    ArchimedeanWarp,
    CustomWarp,
    CylinderWarp,
    EnclosedVolume,
    SphericalArray,
    TotalVolume,
    array_from_json,
    equizonal_enclosed_volume,
    equizonal_total_volume,
    make_archimedean,
)
from .base import (
    Ball,
    BaseDomain,
    ConvexPolygon,
    Ellipse,
    SingularRegionError,
    polygon_from_csv,
    regular_polygon,
)
from .mesh import (
    Mesh,
    graph_slice_mesh,
    mesh_area,
    profile_curve,
    revolve_mesh,
    write_obj,
    write_profile_csv,
)
from .quadrature import QuadratureError, integrate
from .region import ClippedIntegral, Region, clipped_quadrature
from .scaling import ScalingFunction, make_scaling, mk_closed_form, mk_quadrature
from .special import ball_volume, betainc_reg, gamma, gamma_ln, incomplete_beta, sphere_area
from .verify import (
    StatReport,
    app_statistical_test,
    halton,
    interior_points,
    random_regions,
    sample_surface,
)

__version__ = "0.1.0"

__all__ = [
    "ArchimedeanWarp",
    "Ball",
    "BaseDomain",
    "ClippedIntegral",
    "ConvexPolygon",
    "CustomWarp",
    "CylinderWarp",
    "Ellipse",
    "EnclosedVolume",
    "Mesh",
    "QuadratureError",
    "Region",
    "ScalingFunction",
    "SingularRegionError",
    "SphericalArray",
    "StatReport",
    "TotalVolume",
    "app_statistical_test",
    "array_from_json",
    "ball_volume",
    "betainc_reg",
    "clipped_quadrature",
    "equizonal_enclosed_volume",
    "equizonal_total_volume",
    "gamma",
    "gamma_ln",
    "graph_slice_mesh",
    "halton",
    "incomplete_beta",
    "integrate",
    "interior_points",
    "make_archimedean",
    "make_scaling",
    "mesh_area",
    "mk_closed_form",
    "mk_quadrature",
    "polygon_from_csv",
    "profile_curve",
    "random_regions",
    "regular_polygon",
    "revolve_mesh",
    "sample_surface",
    "sphere_area",
    "write_obj",
    "write_profile_csv",
]

"""Per-layer spans and counts, recorded from outside the library.

The tracer replaces chosen archarray functions and methods with timing
wrappers for the length of a traced run and puts the originals back
afterwards.  A module-level function is wrapped by object identity in
every ``archarray.*`` namespace that holds it (``betainc_reg`` is bound
in ``special``, ``scaling`` and the package itself), so a call through
any of those names is seen.  A method is wrapped on the class that
defines it and on every archarray subclass that overrides it
(``Ball.boundary_radius`` as well as ``BaseDomain.boundary_radius``).

Each wrapper keeps a span stack: a span's self time is its duration
minus the time of the wrapped spans it caused.  A target that no longer
exists (renamed or removed) is recorded as absent, and the metrics built
on it are left out of the report rather than reported as zero.
"""

import importlib
import os
import sys
import time

import numpy as np

_MARK = "__bench_traced__"


class Stat:
    """Counters of one traced target."""

    __slots__ = ("calls", "self_s", "points")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.points = 0


def _rows(x):
    """Number of points in a (N, d) point block, a 1-D array or a scalar."""
    arr = np.asarray(x)
    if arr.ndim == 0:
        return 1
    if arr.ndim == 1:
        return arr.size
    return arr.shape[0]


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _out_path(argv):
    argv = list(argv)
    if "--out" in argv and argv.index("--out") + 1 < len(argv):
        return argv[argv.index("--out") + 1]
    return None


def _archarray_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("archarray."):
            yield sub
        yield from _archarray_subclasses(sub)


class Tracer:
    """Installs the wrappers, collects counters and restores the library."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self._stack = []
        self._patches = []
        self._f_root_steps = []
        self._clip_hits = 0
        self._clip_calls = 0
        self._halton_drawn = 0
        self._interior = [0, 0]
        self._uniform = [0, 0.0]
        self._out_bytes = 0
        self._obj_bytes = 0
        self._triangles = 0

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every target; targets that cannot be found become absent."""
        for label, module, attr, hooks in self._targets():
            self._wrap(label, module, attr, **hooks)

    def _targets(self):
        method = {"points": lambda a, k: _rows(_first(a, k, 1, "x"))}
        return [
            ("special.betainc_reg", "archarray.special", "betainc_reg",
             {"points": lambda a, k: _rows(_first(a, k, 2, "z"))}),
            ("scaling.make_scaling", "archarray.scaling", "make_scaling", {}),
            ("scaling.f", "archarray.scaling", "ScalingFunction.f", method),
            ("scaling.f_prime", "archarray.scaling", "ScalingFunction.f_prime", method),
            ("scaling.f_inverse", "archarray.scaling", "ScalingFunction.f_inverse",
             {"points": lambda a, k: _rows(_first(a, k, 1, "y"))}),
            ("scaling.f_root", "archarray.scaling", "ScalingFunction._f_root",
             {"points": method["points"], "enter": self._f_root_enter,
              "leave": self._f_root_leave}),
            ("scaling.raw_inverse", "archarray.scaling", "ScalingFunction._raw_inverse", {}),
            ("quadrature.integrate", "archarray.quadrature", "integrate", {}),
            ("quadrature.gk15", "archarray.quadrature", "_gk15", {}),
            ("base.contains", "archarray.base", "BaseDomain.contains", method),
            ("base.signed_distance", "archarray.base", "BaseDomain.signed_distance", method),
            ("base.distance_to_boundary", "archarray.base",
             "BaseDomain.distance_to_boundary", method),
            ("base.omega_gradient", "archarray.base", "BaseDomain.omega_gradient", method),
            ("base.singular_set_distance", "archarray.base",
             "BaseDomain.singular_set_distance", method),
            ("base.boundary_radius", "archarray.base", "BaseDomain.boundary_radius", {}),
            ("region.clipped_quadrature", "archarray.region", "clipped_quadrature",
             {"wrap_args": self._count_integrand}),
            ("region.clipped_volume", "archarray.region", "Region.clipped_volume",
             {"enter": self._clip_enter, "leave": self._clip_leave}),
            ("region.contains", "archarray.region", "Region.contains",
             {"points": lambda a, k: _rows(_first(a, k, 1, "pts"))}),
            ("region.inside_mask", "archarray.region", "inside_mask",
             {"points": lambda a, k: _rows(_first(a, k, 1, "pts"))}),
            ("array.area_density", "archarray.array", "SphericalArray._area_density",
             {"points": lambda a, k: _rows(_first(a, k, 1, "pts"))}),
            ("array.warping", "archarray.array", "SphericalArray.warping", method),
            ("array.warping_gradient", "archarray.array",
             "SphericalArray.warping_gradient", method),
            ("array.app_residual", "archarray.array", "SphericalArray.app_residual", method),
            ("array.enclosed_mc", "archarray.array", "SphericalArray._enclosed_mc", {}),
            ("array.total_volume", "archarray.array", "SphericalArray.total_volume", {}),
            ("array.enclosed_volume", "archarray.array", "SphericalArray.enclosed_volume", {}),
            ("verify.halton", "archarray.verify", "halton",
             {"leave": self._halton_leave}),
            ("verify.interior_points", "archarray.verify", "interior_points",
             {"enter": self._interior_enter, "leave": self._interior_leave}),
            ("verify.base_uniform", "archarray.verify", "_base_uniform",
             {"leave": self._uniform_leave}),
            ("verify.sample_surface", "archarray.verify", "sample_surface", {}),
            ("verify.app_statistical_test", "archarray.verify", "app_statistical_test", {}),
            ("mesh.revolve_mesh", "archarray.mesh", "revolve_mesh",
             {"leave": self._mesh_leave}),
            ("mesh.graph_slice_mesh", "archarray.mesh", "graph_slice_mesh",
             {"leave": self._mesh_leave}),
            ("mesh.write_obj", "archarray.mesh", "write_obj",
             {"leave": self._obj_leave}),
            ("cli.run", "archarray.cli", "run", {"leave": self._cli_leave}),
        ]

    def _wrap(self, label, module_name, attr, *, points=None, enter=None,
              leave=None, wrap_args=None):
        try:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = (owner.__dict__[name] if owner_name else getattr(module, name))
        except (ImportError, AttributeError, KeyError):
            self.absent.append(label)
            return
        stat = self.stats.setdefault(label, Stat())
        hooks = (points, enter, leave, wrap_args)
        if owner_name:
            for cls in [owner] + list(_archarray_subclasses(owner)):
                if name in cls.__dict__:
                    method = cls.__dict__[name]
                    self._patch(cls, name, method,
                                self._make_wrapper(label, stat, method, *hooks))
            return
        wrapper = self._make_wrapper(label, stat, original, *hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "archarray" or mod_name.startswith("archarray.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _make_wrapper(self, label, stat, original, points, enter, leave, wrap_args):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            token = enter(args, kwargs) if enter is not None else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
            if points is not None:
                stat.points += points(args, kwargs)
            if leave is not None:
                leave(token, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, label)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", label)
        return wrapper

    # -- restoring -------------------------------------------------------

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @staticmethod
    def leftover_wrappers():
        """Names of archarray attributes that still hold a tracer wrapper."""
        found = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "archarray" or mod_name.startswith("archarray.")):
                continue
            for key, value in list(vars(mod).items()):
                if hasattr(value, _MARK):
                    found.append(f"{mod_name}.{key}")
                if isinstance(value, type) and value.__module__ == mod_name:
                    for meth, member in vars(value).items():
                        if hasattr(member, _MARK):
                            found.append(f"{mod_name}.{key}.{meth}")
        return found

    # -- hooks -----------------------------------------------------------

    def _f_root_enter(self, args, kwargs):
        raw = self.stats.get("scaling.raw_inverse")
        return raw.calls if raw is not None else None

    def _f_root_leave(self, token, args, kwargs, result):
        raw = self.stats.get("scaling.raw_inverse")
        if token is not None and raw is not None:
            self._f_root_steps.append(raw.calls - token)

    def _count_integrand(self, args, kwargs):
        integrand = _first(args, kwargs, 2, "integrand")
        if integrand is None:
            return args, kwargs
        stat = self.stats.setdefault("region.integrand", Stat())

        def counted(pts):
            stat.calls += 1
            stat.points += _rows(pts)
            return integrand(pts)

        if len(args) > 2:
            args = args[:2] + (counted,) + args[3:]
        else:
            kwargs = dict(kwargs, integrand=counted)
        return args, kwargs

    def _clip_enter(self, args, kwargs):
        return self.stats["region.clipped_quadrature"].calls \
            if "region.clipped_quadrature" in self.stats else None

    def _clip_leave(self, token, args, kwargs, result):
        if token is None:
            return
        self._clip_calls += 1
        if self.stats["region.clipped_quadrature"].calls == token:
            self._clip_hits += 1

    def _halton_leave(self, token, args, kwargs, result):
        self._halton_drawn += len(result)

    def _interior_enter(self, args, kwargs):
        return self._halton_drawn

    def _interior_leave(self, token, args, kwargs, result):
        self._interior[0] += len(result)
        self._interior[1] += self._halton_drawn - token

    def _uniform_leave(self, token, args, kwargs, result):
        pts, _, rate = result
        self._uniform[0] += len(pts)
        self._uniform[1] += len(pts) / rate if rate > 0 else 0.0

    def _mesh_leave(self, token, args, kwargs, result):
        self._triangles += len(result.triangles)

    def _obj_leave(self, token, args, kwargs, result):
        self._obj_bytes += os.path.getsize(_first(args, kwargs, 1, "path"))

    def _cli_leave(self, token, args, kwargs, result):
        path = _out_path(_first(args, kwargs, 0, "argv") or [])
        if path is not None and os.path.exists(path):
            self._out_bytes += os.path.getsize(path)

    # -- reporting -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; absent targets are skipped."""
        out = {}
        s = self.stats

        def have(*labels):
            return all(label in s for label in labels)

        def put(name, value, unit):
            out[name] = (value, unit)

        def ratio(num, den):
            return num / den if den else 0.0

        if have("special.betainc_reg"):
            st = s["special.betainc_reg"]
            put("special.betainc_reg.self_s", st.self_s, "s")
            put("special.betainc_reg.calls", st.calls, "count")
            put("special.betainc_reg.points", st.points, "count")
        for label in ("scaling.f", "scaling.f_prime", "scaling.f_root"):
            if have(label):
                put(label + ".points", s[label].points, "count")
        if have("scaling.f_root", "scaling.raw_inverse"):
            st = s["scaling.f_root"]
            steps = self._f_root_steps
            put("scaling.f_root.calls", st.calls, "count")
            put("scaling.f_root.self_s", st.self_s, "s")
            put("scaling.f_root.steps_mean", float(np.mean(steps)) if steps else 0.0, "count")
            put("scaling.f_root.steps_max", max(steps) if steps else 0, "count")
            put("scaling.batch_mean", ratio(st.points, st.calls), "count")
        if have("scaling.make_scaling"):
            put("scaling.make_scaling.self_s", s["scaling.make_scaling"].self_s, "s")
        if have("quadrature.gk15"):
            put("quadrature.intervals", s["quadrature.gk15"].calls, "count")
        if have("quadrature.integrate"):
            put("quadrature.integrate.calls", s["quadrature.integrate"].calls, "count")
            put("quadrature.integrate.self_s", s["quadrature.integrate"].self_s, "s")
        if have("region.clipped_quadrature"):
            st = s["region.clipped_quadrature"]
            put("region.clipped_quadrature.calls", st.calls, "count")
            put("region.clipped_quadrature.self_s", st.self_s, "s")
            integrand = s.get("region.integrand", Stat())
            put("region.integrand.calls", integrand.calls, "count")
            put("region.integrand.points", integrand.points, "count")
        for label in ("region.contains", "region.inside_mask"):
            if have(label):
                put(label + ".points", s[label].points, "count")
        if have("region.clipped_volume", "region.clipped_quadrature"):
            put("region.clip_cache.hit_ratio", ratio(self._clip_hits, self._clip_calls),
                "ratio")
        if have("base.signed_distance"):
            put("base.signed_distance.points", s["base.signed_distance"].points, "count")
        for label in ("array.enclosed_mc", "array.app_residual", "array.warping_gradient",
                      "array.area_density", "verify.app_statistical_test"):
            if have(label):
                put(label + ".self_s", s[label].self_s, "s")
        if have("verify.base_uniform"):
            put("verify.base_uniform.self_s", s["verify.base_uniform"].self_s, "s")
            put("verify.base_uniform.accept_ratio",
                ratio(self._uniform[0], self._uniform[1]), "ratio")
        if have("verify.interior_points", "verify.halton"):
            put("verify.interior_points.accept_ratio",
                ratio(self._interior[0], self._interior[1]), "ratio")
        if have("mesh.revolve_mesh", "mesh.graph_slice_mesh"):
            put("mesh.build.self_s",
                s["mesh.revolve_mesh"].self_s + s["mesh.graph_slice_mesh"].self_s, "s")
            put("mesh.triangles", self._triangles, "count")
        if have("mesh.write_obj"):
            put("mesh.write_obj.self_s", s["mesh.write_obj"].self_s, "s")
            put("mesh.write_obj.bytes", self._obj_bytes, "bytes")
        if have("cli.run"):
            put("cli.self_s", s["cli.run"].self_s, "s")
            put("cli.out.bytes", self._out_bytes, "bytes")
        for layer in ("special", "scaling", "quadrature", "base", "region", "array",
                      "verify", "mesh"):
            labels = [lb for lb in s if lb.startswith(layer + ".") and lb != "region.integrand"]
            if labels:
                put(layer + ".self_s", sum(s[lb].self_s for lb in labels), "s")
        return out

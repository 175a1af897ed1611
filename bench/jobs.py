"""The three workloads: fixed job lists built from a seed, and their checks.

A job is one operation: a ``heisminimal`` command run through
``cli.main`` with its artifacts written, or one library call where the
command line has no entry point for it.  ``build(workload, seed, work)``
returns the job list of one pass; every pass runs the same list, so a
faster program cannot change the mix.

Each job's ``judge`` raises ``Failed`` when the operation did not
complete (non-zero exit, exception) and ``Wrong`` when it completed with
output that contradicts a closed form or a property the method must
have.  Tolerances are named constants below and listed in README.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import closed_forms as cf
from heisminimal import cli, graph, ruled

WORKLOADS = ("spanning", "surfaces", "commands")

# program thresholds the checks restate
CHORD_GAP_TOL = 1e-10        # |F| on an accepted chord (plateau's own bar)
STRONG_TOL = 1e-6            # max |H| off the characteristic set
WEAK_TOL = 1e-5              # max |first variation| over admitted bumps
GLUE_TOL = 1e-8              # cli default --tol-glue
# agreement between the program and a closed form
BRANCH_GAP_TOL = 1e-10       # |F| on each projected continuation sample
SLOPE_REL_TOL = 1e-6         # reported phi' against -F_t / F_phi
CURVE_TOL = 1e-9             # chord endpoints on the closed-form curve
DEFECT_MIN_TOL = 1e-9        # legendrian_min against min |w| on its grid
HORIZONTAL_TOL = 1e-8        # |w| at a reported isolated point
DIAGONAL_TOL = 1e-3          # branch end against the horizontal point
GAUSS_TOL = 1e-12            # p, q against analytic derivatives (relative)
LOCUS_TOL = 1e-12            # kappa, w0, radii of a circle seed
MESH_TOL = 1e-9              # mesh vertices on the lift (12 digits printed)
GLUE_DEFECT_TOL = 1e-12      # interface defect against its closed form
ORBIT_TOL = 1e-9             # flow trace against the exact orbit
ORBIT_TOL_MOLLIFIED = 1e-6   # same, after smoothing (quadrature of a bump)

# bump counts of the library-call jobs in ``surfaces``; the default 20
# bumps make one job 2-8 s, too few per run.  Grids stay at their
# defaults: a coarser characteristic scan misses points, and a bump laid
# over one breaks the weak check.
RULED_SIZES = dict(bump_count=2)
GLUE_BUMPS = 2

# spanning: continuation tails of this parameter length, about 65 of the
# program's 2048 steps per period
TAIL = 0.2


class Failed(Exception):
    """The operation did not complete."""


class Wrong(Exception):
    """The operation completed, and its output is wrong."""


class Job:
    def __init__(self, name, run, judge, fingerprint):
        self.name = name
        self.run = run
        self.judge = judge
        self.fingerprint = fingerprint


class CliOutcome:
    def __init__(self, rc, stderr, out: Path):
        self.rc = rc
        self.stderr = stderr
        self.out = out

    def verdict(self):
        return json.loads((self.out / "verdict.json").read_text())

    def table(self, name):
        return np.loadtxt(self.out / name, delimiter=",", skiprows=1,
                          ndmin=2)


def _dir_fingerprint(outcome):
    h = hashlib.sha256()
    size = 0
    paths = sorted(outcome.out.iterdir()) if outcome.out.is_dir() else []
    for path in paths:
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


def _value_fingerprint(outcome):
    return hashlib.sha256(repr(outcome).encode()).hexdigest(), 0


class Builder:
    def __init__(self, seed: int, work: Path, fixtures: Path, stream: int):
        self.rng = np.random.default_rng([seed, stream])
        self.work = work
        self.fixtures = fixtures
        self.jobs: list[Job] = []
        (work / "in").mkdir(parents=True, exist_ok=True)

    def fixture(self, name):
        return json.loads((self.fixtures / f"{name}.json").read_text())

    def uniform(self, lo, hi):
        return float(self.rng.uniform(lo, hi))

    def cli(self, name, command, cfg, judge, *, any_exit=False):
        """A command job; ``judge`` sees only exit-0 runs unless any_exit."""
        inp = self.work / "in" / f"{name}.json"
        inp.write_text(json.dumps(cfg))
        out = self.work / "out" / name
        argv = [command, "--input", str(inp), "--out", str(out)]

        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return CliOutcome(rc, err.getvalue(), out)

        def judge_exit(outcome):
            if outcome.rc != 0 and not any_exit:
                raise Failed(f"exit {outcome.rc}: {outcome.stderr.strip()}")
            judge(outcome)

        self.jobs.append(Job(name, run, judge_exit, _dir_fingerprint))

    def call(self, name, run, judge):
        def run_guarded():
            try:
                return run()
            except (ValueError, ArithmeticError) as exc:
                return exc

        def judge_result(result):
            if isinstance(result, Exception):
                raise Failed(f"{type(result).__name__}: {result}")
            judge(result)

        self.jobs.append(Job(name, run_guarded, judge_result,
                             _value_fingerprint))


def _require(cond, message):
    if not cond:
        raise Wrong(message)


# ---------------------------------------------------------------------------
# spanning: plateau-scan, phi-continue and assemble on closed curves


def _judge_scan(curve: cf.Curve, n=1024):
    def judge(o: CliOutcome):
        v = o.verdict()
        th = np.linspace(0.0, cf.TWO_PI, n, endpoint=False)
        w_min = float(np.abs(curve.defect(th)).min())
        _require(abs(v["legendrian_min"] - w_min) <= DEFECT_MIN_TOL,
                 f"legendrian_min {v['legendrian_min']} vs closed form {w_min}")
        if curve.planar:
            _require(v["verdict"] == "INCONCLUSIVE"
                     and v["planar_window"] is not None,
                     f"planar curve got {v['verdict']} without a window")
        else:
            expect = ("NO_RULED_SPANNING_GRAPH" if w_min > 1e-6
                      else "INCONCLUSIVE")
            _require(v["verdict"] == expect,
                     f"verdict {v['verdict']}, closed-form min |w| {w_min}")
        for t in v["isolated_points"]:
            _require(abs(float(curve.defect(t))) <= HORIZONTAL_TOL,
                     f"isolated point {t} is not horizontal")
        profile = o.table("legendrian_profile.csv")
        err = np.abs(profile[:, 1] - curve.defect(profile[:, 0])).max()
        _require(err <= DEFECT_MIN_TOL, f"defect profile off by {err}")
    return judge


def _judge_branch(curve: cf.Curve):
    """Slope signs along branch.csv against -F_t / F_phi."""
    def judge(o: CliOutcome):
        v = o.verdict()
        rows = o.table("branch.csv")
        t, phi, slope = rows[:, 0], rows[:, 1], rows[:, 2]
        # the first sample is the unprojected seed and an obstruction
        # appends its bisection point; the rest sit on the zero set
        body = slice(1, -1 if v["status"] == "OBSTRUCTED" else None)
        gap = np.abs(curve.gap(t[body], phi[body]))
        _require(gap.size == 0 or gap.max() <= BRANCH_GAP_TOL,
                 f"|F| on the branch reaches {gap.max()}")
        cf_slope = curve.slope(t[:-1], phi[:-1])
        rel = np.abs(slope[:-1] - cf_slope) / np.maximum(1.0, np.abs(cf_slope))
        _require(rel.max() <= SLOPE_REL_TOL,
                 f"phi' off the closed form by {rel.max()}")
        sign0 = math.copysign(1.0, cf_slope[0])
        _require(np.all(np.sign(cf_slope) == sign0),
                 "closed-form slope changes sign inside the branch")
        if v["status"] == "OBSTRUCTED":
            t_star = v["obstruction_t"]
            h = cf.TWO_PI / 2048
            before = curve.partner(t_star - h / 64, phi[-1])
            after = curve.partner(t_star + h / 64, phi[-1])
            s_before = curve.slope(t_star - h / 64, before)
            s_after = curve.slope(t_star + h / 64, after)
            _require(math.copysign(1.0, s_before) == sign0
                     and math.copysign(1.0, s_after) != sign0,
                     f"obstruction_t {t_star} does not bracket the slope's "
                     "sign change")
        else:
            _require(v["status"] == "MONOTONE", f"status {v['status']}")
            d = v["diagonal_t"]
            _require(d is not None, "monotone branch never reached the "
                     "diagonal")
            zeros = np.asarray(curve.defect_zeros())
            _require(np.abs(zeros - d).min() <= DIAGONAL_TOL,
                     f"branch closes at {d}, no horizontal point there")
    return judge


def _judge_assemble(curve: cf.Curve):
    """A monotone tail's chords are short and nested: it must assemble."""
    def judge(o: CliOutcome):
        v = o.verdict()
        _require(v.get("ok"), f"monotone tail not accepted: {v}")
        rows = o.table("chords.csv")
        gap = np.abs(cf.chord_gap(rows)).max()
        _require(gap <= CHORD_GAP_TOL, f"accepted chord with |F| = {gap}")
        ends = np.vstack([rows[:, 0:3], rows[:, 3:6]])
        off = cf.on_family_curve(curve, ends)
        _require(off <= CURVE_TOL, f"chord endpoint {off} off the curve")
        _require(v["n_chords"] == rows.shape[0], "n_chords mismatch")
    return judge


# anchors of family members whose branch from theta = 0 stops where phi'
# crosses zero, at obstruction_t near 0.34 (about 110 continuation
# steps); two jittered members of each keep the middle of the job-time
# distribution dense.  Members whose branch folds through a vertical
# tangent (phi' -> infinity) are left out: see CHANGES.md.
OBSTRUCTED_ANCHORS = ((-0.32, -0.02, 0.99), (0.11, 0.24, -0.87)) * 2
# good_curve, around which the monotone tails are drawn
MONOTONE_ANCHOR = (2.0, 0.0, 1.0)
GOOD_DIAGONAL = 2.7770844908340435


def build_spanning(b: Builder):
    nonleg = b.fixture("nonlegendrian_curve")
    circle = b.fixture("planar_circle")
    bad = b.fixture("bad_curve")
    good = b.fixture("good_curve")
    b.cli("scan-nonlegendrian", "plateau-scan", nonleg,
          _judge_scan(cf.nonlegendrian_curve(nonleg["curve"]["c"])))
    b.cli("scan-planar-circle", "plateau-scan", circle,
          _judge_scan(cf.planar_circle(circle["curve"]["c"])))
    bad_curve = cf.family(0.2, 1.0, 0.0)
    b.cli("continue-bad", "phi-continue", bad,
          _judge_branch(bad_curve))
    good_curve = cf.family(*MONOTONE_ANCHOR)
    t_s, phi_s = good_curve.tail_start(GOOD_DIAGONAL, TAIL)
    b.cli("assemble-good-tail", "assemble",
          dict(good, t_start=t_s, phi_start=phi_s),
          _judge_assemble(good_curve))

    for k, (a0, b0, c0) in enumerate(OBSTRUCTED_ANCHORS):
        curve = cf.family(a0 + b.uniform(-0.02, 0.02),
                          b0 + b.uniform(-0.02, 0.02),
                          c0 + b.uniform(-0.02, 0.02))
        b.cli(f"continue-folding-{k}", "phi-continue",
              curve.config(t_start=0.0), _judge_branch(curve))
    a0, b0, c0 = MONOTONE_ANCHOR
    curve = cf.family(a0 + b.uniform(-0.1, 0.1), b0 + b.uniform(-0.1, 0.1),
                      c0 + b.uniform(-0.1, 0.1))
    b.cli("scan-member", "plateau-scan", curve.config(), _judge_scan(curve))
    t_s, phi_s = curve.tail_start(GOOD_DIAGONAL, TAIL)
    cfg = curve.config(t_start=t_s, phi_start=phi_s)
    b.cli("continue-member-tail", "phi-continue", cfg, _judge_branch(curve))
    b.cli("assemble-member-tail", "assemble", cfg, _judge_assemble(curve))


# ---------------------------------------------------------------------------
# surfaces: ruled-lift minimality and glued pairs, as library calls


def _ruled_job(b: Builder, name, surface_cfg):
    def run():
        surface = ruled.surface_from_config(surface_cfg)
        rep = graph.minimality_residual(ruled.RuledLiftPatch(surface),
                                        **RULED_SIZES)
        return rep.strong, rep.weak, rep.n_bumps, rep.char_points.shape[0]

    def judge(res):
        strong, weak, n_bumps, _ = res
        _require(n_bumps >= 1, "no bump admitted")
        _require(strong <= STRONG_TOL, f"strong residual {strong}")
        _require(weak <= WEAK_TOL, f"weak residual {weak}")

    b.call(name, run, judge)


def _glue_job(b: Builder, name, cfg, expected_defect):
    def run():
        rep = graph.glue_check(
            graph.patch_from_config(cfg["side1"]),
            graph.patch_from_config(cfg["side2"]),
            graph.InterfaceCurve.from_config(cfg["interface"]),
            glue_tol=GLUE_TOL, bump_count=GLUE_BUMPS)
        return rep.defect, rep.glue_pass, rep.weak_defect, len(
            rep.bump_integrals)

    def judge(res):
        defect, glue_pass, _, n_bumps = res
        _require(abs(defect - expected_defect) <= GLUE_DEFECT_TOL,
                 f"interface defect {defect}, closed form {expected_defect}")
        _require(glue_pass == (expected_defect <= GLUE_TOL),
                 f"glue_pass {glue_pass} with closed-form defect "
                 f"{expected_defect}")
        _require(n_bumps == GLUE_BUMPS, f"{n_bumps} bumps integrated")

    b.call(name, run, judge)


def _glue_pair(mu, lam, kappa, x1, y1, tau):
    return {
        "side1": {"domain": [0.0, x1, -y1, 0.0],
                  "u": f"({mu!r})*x*y"},
        "side2": {"domain": [0.0, x1, 0.0, y1],
                  "u": f"({lam!r})*x*y + ({kappa!r})*x^2"},
        "interface": {"x": "tau", "y": "0", "tau_range": list(tau),
                      "flip_normal": True},
    }


def build_surfaces(b: Builder):
    for name in ("ruled_line", "ruled_circle", "ruled_ellipse_arc",
                 "ruled_spiral_arc", "ruled_spline"):
        _ruled_job(b, name, b.fixture(name)["surface"])
    # a graph-like spline seed with a sampled height profile
    length = b.uniform(2.4, 2.6)
    amp, freq, phase = b.uniform(0.15, 0.2), b.uniform(1.4, 1.6), \
        b.uniform(0.0, cf.TWO_PI)
    s = np.linspace(0.0, length, 200)
    h = b.uniform(-0.2, 0.2) + b.uniform(-0.1, 0.1) * np.sin(
        b.uniform(0.5, 1.5) * s)
    _ruled_job(b, "spline-seed", {
        "gamma": {"s": s.tolist(), "x": s.tolist(),
                  "y": (amp * np.sin(freq * s + phase)).tolist()},
        "h0": {"values": h.tolist()},
        "s_range": [0.0, length],
        "r_range": [-0.25, 0.25]})

    glue = b.fixture("glue_example")
    _glue_job(b, "glue-shipped", glue, 0.0)
    # one normal-continuous pair and one with a normal jump
    mu, lam = b.uniform(-0.4, 0.4), b.uniform(-0.8, 0.4)
    x1, y1 = b.uniform(2.0, 3.0), b.uniform(1.0, 1.5)
    tau = (b.uniform(0.3, 0.6), b.uniform(1.6, 1.9))
    _glue_job(b, "glue-matched", _glue_pair(mu, lam, 0.0, x1, y1, tau),
              cf.glue_normal_defect(mu, lam, 0.0))
    kappa = b.uniform(0.2, 0.5)
    _glue_job(b, "glue-jump", _glue_pair(mu, lam, kappa, x1, y1, tau),
              cf.glue_normal_defect(mu, lam, kappa))


# ---------------------------------------------------------------------------
# commands: the short commands on fixtures and seeded variants


def _judge_gauss(height: cf.Height, flat_origin=False):
    def judge(o: CliOutcome):
        v = o.verdict()
        rows = o.table("gauss_scan.csv")
        x, y, p, q = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        ep, eq = height.gauss(x, y)
        scale = max(1.0, float(np.abs(ep).max()), float(np.abs(eq).max()))
        err = max(np.abs(p - ep).max(), np.abs(q - eq).max()) / scale
        _require(err <= GAUSS_TOL, f"Gauss components off by {err}")
        if flat_origin:
            _require(v["characteristic_points"] == [[0.0, 0.0]],
                     f"characteristic points {v['characteristic_points']}")
    return judge


def _judge_minimal(o: CliOutcome):
    v = o.verdict()
    _require(v["verdict"] == "H_MINIMAL",
             f"{v['verdict']}: strong {v['strong_residual']}, "
             f"weak {v['weak_defect']}")


def _judge_locus(circle=None):
    def judge(o: CliOutcome):
        rows = o.table("char_locus.csv")
        kappa, w0, r1, r2 = rows[:, 1], rows[:, 2], rows[:, 4], rows[:, 5]
        for r in (r1, r2):
            ok = np.isfinite(r)
            res = 0.5 * kappa[ok] * r[ok] ** 2 - r[ok] + w0[ok]
            scale = np.maximum(1.0, np.abs(r[ok]) ** 2)
            _require(np.all(np.abs(res) <= 1e-9 * scale),
                     "a reported radius does not solve the quadratic")
        if circle is not None:
            k_cf, w_cf = cf.circle_frame(*circle)
            _require(np.abs(kappa - k_cf).max() <= LOCUS_TOL
                     and np.abs(w0 - w_cf).max() <= LOCUS_TOL,
                     "circle seed kappa or w0 off the closed form")
    return judge


def _judge_mesh(radius, h_slope, h_const, s_n, r_n):
    def judge(o: CliOutcome):
        v = o.verdict()
        _require(v["mesh"]["n_vertices"] == s_n * r_n, "vertex count")
        verts = np.array([[float(c) for c in line.split()[1:4]]
                          for line in (o.out / "mesh.txt").read_text()
                          .splitlines() if line.startswith("v ")])
        x, y, t = verts.T
        s = radius * np.mod(np.arctan2(y, x), cf.TWO_PI)
        # the lift of a circle seed keeps t = h0(s): gamma . gamma' = 0
        dev = np.abs(t - (h_slope * s + h_const))
        # s = 0 and s = 2 pi R are one rule; take the nearer branch
        dev = np.minimum(dev, np.abs(t - (h_slope * (s - cf.TWO_PI * radius)
                                          + h_const)))
        _require(dev.max() <= MESH_TOL, f"mesh vertex {dev.max()} off the lift")
    return judge


def _judge_persistent(o: CliOutcome):
    v = o.verdict()
    _require(v["persistent"] is True,
             f"not persistent: laplacian {v['laplacian_dual']}, "
             f"residual {v['strong_residual']}")


def _judge_orbit(orbit, x0, y0, t_max, tol):
    def judge(o: CliOutcome):
        v = o.verdict()
        ex, ey = orbit(x0, y0, t_max)
        err = math.hypot(v["end_point"][0] - ex, v["end_point"][1] - ey)
        _require(err <= tol, f"trace ends {err} off the exact orbit")
        _require(v["truncated"] is False, "trace was truncated")
    return judge


def _judge_rejects_t_max(o: CliOutcome):
    # NaN is not a positive trace time; the config must be refused
    if o.rc != 2 or "t_max" not in o.stderr:
        raise Failed(f"t_max NaN: exit {o.rc}, "
                     f"n_samples {o.verdict().get('n_samples')}"
                     if o.rc == 0 else f"t_max NaN: exit {o.rc}")


def build_commands(b: Builder):
    flat = b.fixture("patch_flat")
    zero = cf.quadratic_height(0, 0, 0, 0, 0, 0)
    b.cli("gauss-flat", "gauss-scan", flat, _judge_gauss(zero, True))
    b.cli("minimality-flat", "minimality", flat, _judge_minimal)
    coeffs = [b.uniform(-0.5, 0.5) for _ in range(6)]
    height = cf.quadratic_height(*coeffs)
    rect = [-1.0, b.uniform(0.8, 1.2), -1.0, b.uniform(0.8, 1.2)]
    b.cli("gauss-member", "gauss-scan",
          {"patch": {"domain": rect, "u": height.expr}}, _judge_gauss(height))
    # planes are H-minimal: (p, q) is a rotation field
    d, e, k = b.uniform(-1, 1), b.uniform(-1, 1), b.uniform(-1, 1)
    plane = f"({d!r})*x + ({e!r})*y + ({k!r})"
    b.cli("minimality-plane", "minimality",
          {"patch": {"domain": rect, "u": plane}}, _judge_minimal)
    xs = np.linspace(rect[0], rect[1], 24)
    ys = np.linspace(rect[2], rect[3], 24)
    values = d * xs[:, None] + e * ys[None, :] + k
    b.cli("minimality-sampled", "minimality",
          {"patch": {"domain": rect, "u": {"xs": xs.tolist(),
                                           "ys": ys.tolist(),
                                           "values": values.tolist()}}},
          _judge_minimal)

    circle = b.fixture("ruled_circle")
    b.cli("locus-circle", "char-locus", circle, _judge_locus((1.0, 0.0)))
    b.cli("locus-spline", "char-locus", b.fixture("ruled_spline"),
          _judge_locus())
    radius, slope, const = b.uniform(0.6, 1.6), b.uniform(-0.3, 0.3), \
        b.uniform(-0.5, 0.5)
    member = {"surface": {
        "gamma": [f"({radius!r})*cos(s/({radius!r}))",
                  f"({radius!r})*sin(s/({radius!r}))"],
        "h0": f"({slope!r})*s + ({const!r})",
        "r_range": [-0.4 * radius, 0.5 * radius],
        "s_range": [0.0, cf.TWO_PI * radius]}}
    b.cli("locus-member", "char-locus", member,
          _judge_locus((radius, slope)))
    b.cli("mesh-circle", "build-ruled", circle,
          _judge_mesh(1.0, 0.0, 0.0, 48, 12))
    b.cli("mesh-member", "build-ruled", member,
          _judge_mesh(radius, slope, const, 48, 12))
    b.cli("mesh-spline", "build-ruled", b.fixture("ruled_spline"),
          lambda o: _require(o.verdict()["seed"]["ok"], "seed not unit speed"))

    b.cli("persistent-quadratic", "persistent",
          b.fixture("persistent_quadratic"), _judge_persistent)
    b.cli("persistent-helicoid", "persistent",
          b.fixture("persistent_helicoid"), _judge_persistent)
    b.cli("persistent-quadratic-member", "persistent", {"family": {
        "kind": "QUADRATIC", "m": b.uniform(-1, 1), "a": b.uniform(-1, 1),
        "b": b.uniform(-1, 1), "x0": b.uniform(-0.5, 0.5),
        "y0": b.uniform(-0.5, 0.5)}}, _judge_persistent)
    b.cli("persistent-helicoid-member", "persistent", {"family": {
        "kind": "HELICOID", "a": b.uniform(-1, 1), "b": b.uniform(-1, 1),
        "hole_radius": b.uniform(0.3, 0.6), "outer_radius": 2.0,
        "rect": [-2.0, 2.0, -2.0, 2.0]}}, _judge_persistent)

    rotation = b.fixture("flow_rotation")
    t_max = rotation["t_max"]
    b.cli("flow-rotation", "flow-trace", rotation,
          _judge_orbit(cf.rotation_orbit, 1.0, 0.0, t_max, ORBIT_TOL))
    b.cli("flow-rotation-mollified", "flow-trace",
          dict(rotation, mollify=0.05),
          _judge_orbit(cf.rotation_orbit, 1.0, 0.0, t_max,
                       ORBIT_TOL_MOLLIFIED))
    ang = b.uniform(0.0, cf.TWO_PI)
    rad = b.uniform(0.4, 1.0)
    x0, y0 = rad * math.cos(ang), rad * math.sin(ang)
    t_max = b.uniform(0.5, 3.0)
    b.cli("flow-rotation-member", "flow-trace",
          dict(rotation, start=[x0, y0], t_max=t_max),
          _judge_orbit(cf.rotation_orbit, x0, y0, t_max, ORBIT_TOL))
    x0, y0 = b.uniform(0.5, 0.8), b.uniform(-0.5, 0.5)
    t_max = b.uniform(0.1, 0.3)
    b.cli("flow-flat-perp", "flow-trace",
          {"field": {"patch": flat["patch"]}, "start": [x0, y0],
           "t_max": t_max},
          _judge_orbit(cf.radial_orbit, x0, y0, t_max, ORBIT_TOL))
    # fails today: picard guards only t_max <= 0, which NaN slips past
    b.cli("flow-t-max-nan", "flow-trace", dict(rotation, t_max=math.nan),
          _judge_rejects_t_max, any_exit=True)


def build(workload: str, seed: int, work: Path, fixtures: Path) -> list[Job]:
    b = Builder(seed, work, fixtures, WORKLOADS.index(workload))
    {"spanning": build_spanning, "surfaces": build_surfaces,
     "commands": build_commands}[workload](b)
    return b.jobs

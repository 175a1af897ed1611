"""Command-line surface: JSON verdicts, CSV tables, SVG artifacts.

Every command reads one JSON config (``--input``), writes its artifacts
into ``--out``, and exits 0 when the run completed, whatever the verdict
says; obstructions, folds, and failed diagnostics are data, not crashes.
Exit 2 flags an invalid config or unreadable input, exit 1 an internal
error.  Outputs are deterministic for a fixed config, so reruns are
byte-identical and artifacts can be kept under golden-file diffs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import svg
from .flow import PlanarField, gauss_perp_field, mollify, picard, straightness
from .graph import (
    InterfaceCurve,
    gauss_grid,
    glue_check,
    minimality_residual,
    patch_from_config,
)
from .plateau import (
    ClosedCurve,
    access_matrix,
    isolated_points,
    legendrian_defect,
    nonlegendrian_verdict,
    phi_continue,
    spanning_assemble,
)
from .ruled import (
    char_locus,
    export_mesh,
    persistence_check,
    persistent_family,
    rule_crossing_scan,
    surface_from_config,
    validate_seed,
)

COMMANDS = (
    "gauss-scan",
    "minimality",
    "char-locus",
    "build-ruled",
    "glue-check",
    "persistent",
    "plateau-scan",
    "phi-continue",
    "assemble",
    "flow-trace",
)


# ---------------------------------------------------------------------------
# plumbing


def _require(cfg: dict, required: set, optional: set = frozenset()):
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - required - set(optional)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"config missing keys: {sorted(missing)}")


def _number(cfg: dict, key: str, kind=float, default=None, label=None):
    """``kind(cfg[key])``, ``default`` when absent, None for null."""
    value = cfg.get(key, default)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label or key} must be a number, "
                         f"got {value!r}") from None


class VerdictError(Exception):
    """A verdict field holds a number JSON cannot carry (NaN or inf).

    Not a ValueError: the config was fine, the program produced the
    number, so ``main`` reports it as an internal error (exit 1).
    """


def _jsonable(v, path="verdict"):
    """JSON-ready copy of ``v``; a non-finite float raises, naming its path.

    A field that may be absent must say so with an explicit None.
    """
    if isinstance(v, dict):
        return {str(k): _jsonable(x, f"{path}.{k}") for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x, f"{path}[{i}]") for i, x in enumerate(v)]
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist(), path)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        if not math.isfinite(f):
            raise VerdictError(f"{path} is {f!r}, which JSON cannot carry")
        return f
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True)
                    + "\n")


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _parse_mesh_text(text: str):
    verts, faces = [], []
    for line in text.splitlines():
        cells = line.split()
        if not cells:
            continue
        if cells[0] == "v":
            verts.append([float(c) for c in cells[1:4]])
        elif cells[0] == "f":
            faces.append([int(c) - 1 for c in cells[1:]])
    return np.asarray(verts, dtype=float), faces


def _patch_mesh(patch, n: int = 24):
    """Vertex/face wireframe of a graph patch, masked cells dropped."""
    x0, x1, y0, y1 = patch.rect
    gx = np.linspace(x0, x1, n)
    gy = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    keep = patch.contains(X, Y)
    U = patch.height(X, Y)
    idx = -np.ones((n, n), dtype=int)
    verts = []
    for i in range(n):
        for j in range(n):
            if keep[i, j] and np.isfinite(U[i, j]):
                idx[i, j] = len(verts)
                verts.append((float(X[i, j]), float(Y[i, j]),
                              float(U[i, j])))
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            quad = (idx[i, j], idx[i + 1, j], idx[i + 1, j + 1],
                    idx[i, j + 1])
            if all(k >= 0 for k in quad):
                faces.append(quad)
    return np.asarray(verts, dtype=float), faces


# ---------------------------------------------------------------------------
# command handlers


def _cmd_gauss_scan(cfg, args, out: Path) -> dict:
    _require(cfg, {"patch"})
    patch = patch_from_config(cfg["patch"])
    n = args.grid or 41
    x0, x1, y0, y1 = patch.rect
    X, Y = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n),
                       indexing="ij")
    inside = patch.contains(X, Y)
    p, q, mag = gauss_grid(patch, X, Y)
    rows = []
    char_pts = []
    for i in range(n):
        for j in range(n):
            if not inside[i, j]:
                continue
            is_char = mag[i, j] <= args.tol_char
            rows.append((X[i, j], Y[i, j], p[i, j], q[i, j], mag[i, j],
                         bool(is_char)))
            if is_char:
                char_pts.append((float(X[i, j]), float(Y[i, j])))
    _write_csv(out / "gauss_scan.csv", "x,y,p,q,mag,characteristic", rows)

    # direction field of the would-be rules: short segments along the
    # perp of the unit Gauss map, characteristic points marked
    m = min(n, 21)
    GX, GY = np.meshgrid(np.linspace(x0, x1, m), np.linspace(y0, y1, m),
                         indexing="ij")
    gp, gq, gmag = gauss_grid(patch, GX, GY)
    ok = patch.contains(GX, GY) & (gmag > args.tol_char)
    half = 0.17 * max(x1 - x0, y1 - y0) / (m - 1)
    dx = half * gq[ok] / gmag[ok]
    dy = -half * gp[ok] / gmag[ok]
    segs = np.stack([
        np.stack([GX[ok] - dx, GY[ok] - dy], axis=-1),
        np.stack([GX[ok] + dx, GY[ok] + dy], axis=-1),
    ], axis=1)
    if segs.size:
        (out / "rules_xy.svg").write_text(
            svg.render("RULES_XY", segs,
                       char_points=char_pts if char_pts else None))
    return {
        "command": "gauss-scan",
        "grid": n,
        "n_points": len(rows),
        "n_characteristic": len(char_pts),
        "characteristic_points": sorted(char_pts),
        "tol_char": args.tol_char,
    }


def _cmd_minimality(cfg, args, out: Path) -> dict:
    _require(cfg, {"patch"})
    patch = patch_from_config(cfg["patch"])
    rep = minimality_residual(patch, grid_n=args.grid or 41,
                              char_tol=args.tol_char)
    minimal = rep.strong <= 1e-6 and rep.weak <= 1e-5
    return {
        "command": "minimality",
        "strong_residual": rep.strong,
        "weak_defect": rep.weak,
        "n_interior_points": rep.n_strong,
        "n_bumps": rep.n_bumps,
        "n_characteristic": int(rep.char_points.shape[0]),
        "thresholds": {"strong": 1e-6, "weak": 1e-5},
        "verdict": "H_MINIMAL" if minimal else "NOT_H_MINIMAL",
    }


def _cmd_char_locus(cfg, args, out: Path) -> dict:
    _require(cfg, {"surface"})
    surface = surface_from_config(cfg["surface"])
    locus = char_locus(surface, s_grid=args.grid or 257)
    rows = [(s, k, w, d, r1, r2, int(nr), bool(db))
            for s, k, w, d, (r1, r2), nr, db in
            zip(locus.s, locus.kappa, locus.w0, locus.disc, locus.roots,
                locus.n_roots, locus.double)]
    _write_csv(out / "char_locus.csv",
               "s,kappa,w0,disc,r_1,r_2,n_roots,double", rows)

    s_draw = np.linspace(surface.seed.s_range[0], surface.seed.s_range[1],
                         33)
    segs = np.array([surface.rule_segment(float(s)) for s in s_draw])
    bx, by = surface.seed.point(np.linspace(surface.seed.s_range[0],
                                            surface.seed.s_range[1], 129))
    boundary = np.column_stack([bx, by])
    pts = locus.points[:, 2:4] if locus.points.size else None
    (out / "rules_xy.svg").write_text(
        svg.render("RULES_XY", segs, boundary=boundary, char_points=pts))
    return {
        "command": "char-locus",
        "n_samples": int(locus.s.size),
        "n_in_range_points": int(locus.points.shape[0]),
        "n_double": int(locus.double.sum()),
        "max_roots": int(locus.n_roots.max()) if locus.n_roots.size else 0,
        "max_abs_disc_at_double":
            float(np.abs(locus.disc[locus.double]).max())
            if locus.double.any() else None,
    }


def _cmd_build_ruled(cfg, args, out: Path) -> dict:
    _require(cfg, {"surface"}, {"mesh"})
    surface = surface_from_config(cfg["surface"])
    seed_rep = validate_seed(surface.seed)
    mesh_cfg = cfg.get("mesh", {})
    _require(mesh_cfg, set(), {"s_n", "r_n"})
    s_n = _number(mesh_cfg, "s_n", int, args.grid or 48, "mesh.s_n")
    r_n = _number(mesh_cfg, "r_n", int, 12, "mesh.r_n")
    text = export_mesh(surface, s_n=s_n, r_n=r_n)
    (out / "mesh.txt").write_text(text)
    verts, faces = _parse_mesh_text(text)
    (out / "mesh.svg").write_text(svg.render("MESH", verts, faces))
    crossing = rule_crossing_scan(surface)
    return {
        "command": "build-ruled",
        "seed": {
            "ok": seed_rep.ok,
            "max_deviation": seed_rep.max_deviation,
            "n_checked": seed_rep.n,
            "closed": surface.seed.closed,
        },
        "mesh": {"s_n": s_n, "r_n": r_n, "n_vertices": len(verts),
                 "n_faces": len(faces)},
        "crossings": {
            "n_crossings": len(crossing.crossings),
            "n_characteristic": sum(c.characteristic
                                    for c in crossing.crossings),
            "diagnostic_pass": crossing.diagnostic_pass,
            "n_rules": crossing.n_rules,
        },
        "r_range": list(surface.r_range),
    }


def _cmd_glue_check(cfg, args, out: Path) -> dict:
    _require(cfg, {"side1", "side2", "interface"})
    p1 = patch_from_config(cfg["side1"])
    p2 = patch_from_config(cfg["side2"])
    interface = InterfaceCurve.from_config(cfg["interface"])
    rep = glue_check(p1, p2, interface, glue_tol=args.tol_glue,
                     char_tol=args.tol_char)

    segs = []
    for rect in (p1.rect, p2.rect):
        x0, x1, y0, y1 = rect
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        for a in range(4):
            segs.append([corners[a], corners[(a + 1) % 4]])
    taus = np.linspace(interface.tau_range[0], interface.tau_range[1], 65)
    ix, iy = interface.point(taus)
    (out / "rules_xy.svg").write_text(
        svg.render("RULES_XY", np.asarray(segs),
                   boundary=np.column_stack([ix, iy])))
    return {
        "command": "glue-check",
        "interface_defect": rep.defect,
        "glue_pass": rep.glue_pass,
        "weak_defect": rep.weak_defect,
        "n_interface_samples": rep.n_taus,
        "n_bumps": len(rep.bump_integrals),
        "tol_glue": args.tol_glue,
    }


def _cmd_persistent(cfg, args, out: Path) -> dict:
    _require(cfg, {"family"})
    fam = dict(cfg["family"])
    kind = fam.pop("kind", None)
    if not isinstance(kind, str):
        raise ValueError("family config needs a string 'kind'")
    allowed = {"m", "a", "b", "x0", "y0", "rect", "hole_radius",
               "cut_halfwidth", "outer_radius"}
    unknown = set(fam) - allowed
    if unknown:
        raise ValueError(f"unknown family keys: {sorted(unknown)}")
    if "rect" in fam:
        fam["rect"] = tuple(fam["rect"])
    patch = persistent_family(kind, **fam)
    rep = persistence_check(patch, grid_n=args.grid or 41,
                            char_tol=args.tol_char)
    verts, faces = _patch_mesh(patch)
    (out / "mesh.svg").write_text(svg.render("MESH", verts, faces))
    return {
        "command": "persistent",
        "kind": kind,
        "persistent": rep.persistent,
        "laplacian_dual": rep.laplacian_dual,
        "laplacian_fd": rep.laplacian_fd,
        "strong_residual": rep.strong,
        "n_points": rep.n_points,
    }


# one shared schema for the three curve commands, so a single fixture
# file can feed all of them; the scan simply has no use for the
# continuation parameters
_CURVE_JOB_OPTIONAL = frozenset({"t_start", "phi_start", "force",
                                 "n_chords"})


def _cmd_plateau_scan(cfg, args, out: Path) -> dict:
    _require(cfg, {"curve"}, _CURVE_JOB_OPTIONAL)
    curve = ClosedCurve.from_config(cfg["curve"])
    n = args.grid or 1024
    iso = isolated_points(curve, n=n)
    verdict = nonlegendrian_verdict(curve, n=n)

    th = np.linspace(0.0, curve.period, 1024, endpoint=False)
    w = legendrian_defect(curve, th)
    _write_csv(out / "legendrian_profile.csv", "theta,w", zip(th, w))
    thetas, F = access_matrix(curve, 256)
    (out / "access_heatmap.svg").write_text(
        svg.render("ACCESS_HEATMAP", thetas, F, x_label="t",
                   y_label="theta"))
    return {
        "command": "plateau-scan",
        "isolated_points": list(iso.thetas),
        "isolated_defects": list(iso.defects),
        "consistent": iso.consistent,
        "notes": list(iso.notes),
        "legendrian_min": verdict.legendrian_min,
        "verdict": verdict.status,
        "planar_window": list(verdict.planar_window)
            if verdict.planar_window is not None else None,
    }


def _cmd_phi_continue(cfg, args, out: Path) -> dict:
    _require(cfg, {"curve"}, _CURVE_JOB_OPTIONAL)
    curve = ClosedCurve.from_config(cfg["curve"])
    t_start = _number(cfg, "t_start", default=0.0)
    cont = phi_continue(curve, t_start, _number(cfg, "phi_start"),
                        offset=args.seed_offset)
    _write_csv(out / "branch.csv", "t,phi,phi_prime",
               zip(cont.t, cont.phi, cont.phi_prime))
    (out / "phi_plot.svg").write_text(
        svg.render("PHI_PLOT", cont.t, cont.phi,
                   obstruction_t=cont.obstruction_t,
                   diagonal_t=cont.diagonal_t, period=curve.period))
    return {
        "command": "phi-continue",
        "status": cont.status,
        "reason": cont.reason,
        "t_start": t_start,
        "obstruction_t": cont.obstruction_t,
        "diagonal_t": cont.diagonal_t,
        "t_end": float(cont.t[-1]),
        "phi_end": float(cont.phi[-1]),
        "n_samples": int(cont.t.size),
    }


def _cmd_assemble(cfg, args, out: Path) -> dict:
    _require(cfg, {"curve"}, _CURVE_JOB_OPTIONAL)
    curve = ClosedCurve.from_config(cfg["curve"])
    t_start = _number(cfg, "t_start", default=0.0)
    phi_start = _number(cfg, "phi_start")
    force = cfg.get("force", False)
    if not isinstance(force, bool):
        raise ValueError(f"force must be true or false, got {force!r}")
    n_chords = _number(cfg, "n_chords", int, 128)
    if n_chords < 1:
        raise ValueError(f"n_chords must be at least 1, got {n_chords}")
    cont = phi_continue(curve, t_start, phi_start, offset=args.seed_offset,
                        stop_at_obstruction=not force)
    if cont.status != "MONOTONE" and not force:
        return {
            "command": "assemble",
            "assembled": False,
            "status": cont.status,
            "reason": cont.reason,
            "obstruction_t": cont.obstruction_t,
            "hint": "set force to true to assemble past the obstruction",
        }
    rep = spanning_assemble(curve, cont, force=force, n_chords=n_chords)
    rows = [(c[0, 0], c[0, 1], c[0, 2], c[1, 0], c[1, 1], c[1, 2])
            for c in rep.chords]
    _write_csv(out / "chords.csv", "x0,y0,t0,x1,y1,t1", rows)
    th = np.linspace(0.0, curve.period, 257)
    bx, by, bt = curve.point(th)
    boundary3 = np.column_stack([bx, by, bt])
    (out / "rules_xy.svg").write_text(
        svg.render("RULES_XY", rep.chords[:, :, :2],
                   boundary=boundary3[:, :2], vertex=rep.vertex))
    (out / "rules_3d_projection.svg").write_text(
        svg.render("RULES_3D_PROJECTION", rep.chords, boundary=boundary3))
    return {
        "command": "assemble",
        "assembled": True,
        "ok": rep.ok,
        "fold_ok": rep.fold_ok,
        "status": rep.continuation.status,
        "vertex": list(rep.vertex) if rep.vertex is not None else None,
        "max_rule_defect": rep.max_rule_defect,
        "max_on_manifold": rep.max_on_manifold,
        "n_chords": rep.n_chords,
        "obstruction_t": rep.continuation.obstruction_t,
    }


def _cmd_flow_trace(cfg, args, out: Path) -> dict:
    _require(cfg, {"field", "start", "t_max"}, {"mollify", "n_steps"})
    t_max = _number(cfg, "t_max")
    if t_max is None or not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    fcfg = cfg["field"]
    if not isinstance(fcfg, dict):
        raise ValueError("field config must be an object")
    if "patch" in fcfg:
        _require(fcfg, {"patch"}, {"rect"})
        patch = patch_from_config(fcfg["patch"])
        rect = fcfg.get("rect", patch.rect)
        field = gauss_perp_field(patch, rect=tuple(rect))
    else:
        _require(fcfg, {"ax", "ay", "rect"})
        field = PlanarField.from_exprs(fcfg["ax"], fcfg["ay"],
                                       tuple(fcfg["rect"]))
    sup_gap = None
    eps = _number(cfg, "mollify")
    if eps is not None:
        field = mollify(field, eps)
        sup_gap = field.sup_gap
    start = cfg["start"]
    if not (isinstance(start, (list, tuple)) and len(start) == 2):
        raise ValueError("start must be [x, y]")
    curve = picard(field, start, t_max,
                   n_steps=_number(cfg, "n_steps", int, 2048))
    curve.to_csv(out / "trace.csv")
    pts = np.column_stack([curve.x, curve.y])
    if pts.shape[0] >= 2:
        stride = max(1, (pts.shape[0] - 1) // 64)
        idx = np.arange(0, pts.shape[0] - 1, stride)
        chords = np.stack([pts[idx], pts[idx + 1]], axis=1)
        (out / "trace_xy.svg").write_text(
            svg.render("RULES_XY", chords, boundary=pts, vertex=pts[0]))
    try:
        straight = straightness(curve)
    except ValueError:
        straight = None
    return {
        "command": "flow-trace",
        "iterations": curve.n_iterations,
        "residual": curve.residual,
        "truncated": curve.truncated,
        "n_samples": int(curve.t.size),
        "straightness": straight,
        "mollify_sup_gap": sup_gap,
        "end_point": [float(curve.x[-1]), float(curve.y[-1])],
    }


_HANDLERS = {
    "gauss-scan": _cmd_gauss_scan,
    "minimality": _cmd_minimality,
    "char-locus": _cmd_char_locus,
    "build-ruled": _cmd_build_ruled,
    "glue-check": _cmd_glue_check,
    "persistent": _cmd_persistent,
    "plateau-scan": _cmd_plateau_scan,
    "phi-continue": _cmd_phi_continue,
    "assemble": _cmd_assemble,
    "flow-trace": _cmd_flow_trace,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisminimal",
        description="Ruled minimal graphs over the first Heisenberg "
                    "group: diagnostics, construction, and spanning "
                    "feasibility.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True,
                        help="path to the JSON job config")
        sp.add_argument("--out", required=True,
                        help="directory for artifacts (created if absent)")
        sp.add_argument("--tol-char", type=float, default=1e-9,
                        help="characteristic-point tolerance")
        sp.add_argument("--tol-glue", type=float, default=1e-8,
                        help="interface-defect tolerance")
        sp.add_argument("--grid", type=int, default=0,
                        help="sampling resolution (0 = command default)")
        sp.add_argument("--seed-offset", type=float, default=1e-4,
                        help="offset from the seed parameter when "
                             "starting a continuation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        verdict = _HANDLERS[args.command](cfg, args, out)
        _write_json(out / "verdict.json", verdict)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

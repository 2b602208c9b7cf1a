"""Command-line front door: configuration, artifacts, reproduction.

Every subcommand resolves its settings from built-in defaults, then the
--config JSON file, then FINEHULL_* environment variables, then explicit
flags, and writes its artifacts plus a manifest with content hashes.
All algorithms are deterministic; reruns with the same effective config
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys

from . import blaschke as bl
from . import hull as hl
from . import potential as pt
from . import product as pr
from .artifacts import (sha256, write_csv, write_grid_csv, write_json,
                        write_text)
from .cantor import (MAX_DEPTH, CRule, build_cantor_spec, cantor_length,
                     condition_sum, spec_from_json, spec_to_json,
                     sum_gap_lengths)
from .errors import PreconditionFailure, UnsupportedShape

__all__ = ["main"]

ENV_PREFIX = "FINEHULL_"
# most logarithm sheets one blaschke --sheets=k0,k1 run may write
MAX_SHEETS = 4096


def _write_manifest(outdir: str, command: str, cfg: dict,
                    names: list[str]) -> None:
    # output location must never change artifact bytes; file-valued
    # inputs are recorded by content, not by location
    cfg = {k: v for k, v in cfg.items() if k != "out"}
    for k in ("spec", "set"):
        if isinstance(cfg.get(k), str) and os.path.exists(cfg[k]):
            cfg[k] = {"sha256": sha256(cfg[k])}
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config": cfg,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "outputs": {n: sha256(os.path.join(outdir, n)) for n in names},
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def _coerce(value, kind):
    if kind is bool:
        if isinstance(value, bool):
            return value
        return str(value).strip().lower() in ("1", "true", "yes", "on")
    if value is None:
        return None
    value = kind(value)
    if kind is float and not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# (name, type, default, help); type None keeps raw strings/objects
_COMMON = [
    ("out", str, "out", "output directory"),
]

_PARAMS = {
    "spec-build": [
        ("a0", float, 0.0, "left endpoint of the root interval"),
        ("b0", float, 1.0, "right endpoint of the root interval"),
        ("rule", str, "affine", "gap exponent rule: affine|factorial|explicit"),
        ("slope", float, 5.0, "affine rule slope"),
        ("offset", float, 0.0, "affine rule offset"),
        ("shift", int, 2, "factorial rule shift"),
        ("values", None, None, "explicit rule values v1,v2,..."),
        ("depth", int, 8, f"number of gaps to materialize (0-{MAX_DEPTH})"),
        ("placement", str, "bisect", "gap placement strategy"),
    ],
    "eval": [
        ("spec", None, None, "path to a gap spec JSON"),
        ("at", None, None, "evaluation point re,im"),
        ("depth", int, None,
         "partial-product depth, 0 to the spec's N (default: adaptive)"),
        ("tol", float, 1e-12, "target truncation error for adaptive depth"),
        ("branch", str, "product",
         "what to evaluate: product|d-plus|h-plus|fine"),
    ],
    "capacity": [
        ("set", None, None, "path to a set JSON (shapes or fine-set query)"),
    ],
    "green": [
        ("set", None, None, "path to a set JSON with shapes"),
        ("at", None, None, "evaluation point re,im"),
        ("n", int, 64, "number of greedy points"),
        ("mesh", int, None, "boundary mesh size per shape"),
    ],
    "sample-e": [
        ("spec", None, None, "path to a gap spec JSON"),
        ("depth", int, None, "condition depth N"),
        ("samples", int, 32, "number of candidates (1-4096)"),
        ("leja_n", int, 64, "points per capacity model"),
    ],
    "hull-scan": [
        ("spec", None, None, "path to a gap spec JSON"),
        ("z", None, None, "base point re,im"),
        ("wrect", None, None, "fiber window x0,x1,y0,y1"),
        ("res", int, 128, "grid resolution per axis (64-2048)"),
        ("sq", bool, False, "scan the square-root graph"),
        ("depth", int, 8, "number of potential terms M"),
        ("scheme", str, "flat_head", "weight scheme: flat_head|quadratic"),
        ("delta", float, 20.0, "certified dip depth threshold"),
    ],
    "blaschke": [
        ("spec", None, None, "path to a disk spec JSON"),
        ("at", None, None, "evaluation point re,im"),
        ("depth", int, None,
         "partial-product depth, 0 to the spec's N (default: all)"),
        ("sheets", None, None, "sheet range k0,k1 (needs --at)"),
        ("sample_depth", int, None, "arc sample condition depth N"),
        ("samples", int, 16, "number of arc candidates (1-4096)"),
        ("leja_n", int, 64, "points per capacity model"),
    ],
    "reproduce-all": [],
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors raised as PreconditionFailure (exit 1)
    instead of printed with exit 2; the subcommand parsers share this
    class."""

    def error(self, message):
        # "argument --at: ...", "argument command: ...", or a message
        # naming the offending flags ("unrecognized arguments: --bogus 1")
        m = re.match(r"argument (\S+):", message) or \
            re.search(r"(?<!\S)(--[\w-]+)", message)
        name = m.group(1) if m else "command"
        raise PreconditionFailure(message,
                                  field=name.lstrip("-").replace("-", "_"))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main() call;
    parse_args gives every call a fresh Namespace.  No flag abbreviates,
    so a flag added later cannot change a recorded command line."""
    parser = _Parser(
        prog="finehull", allow_abbrev=False,
        description="Gap products, capacity chains, and fiber scans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, params in _PARAMS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="JSON file with defaults for any flag")
        for name, kind, _default, help_text in params + _COMMON:
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=name, action="store_const",
                               const=True, default=None, help=help_text)
            else:
                p.add_argument(flag, dest=name, default=None, help=help_text)
    return parser


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Defaults < config file < environment < explicit flags."""
    params = _PARAMS[command] + _COMMON
    cfg = {name: default for name, _, default, _ in params}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise PreconditionFailure(f"cannot read config: {e}",
                                      field="config") from e
        except json.JSONDecodeError as e:
            raise PreconditionFailure(f"invalid config JSON: {e}",
                                      field="config") from e
        for key, value in file_cfg.items():
            if key not in cfg:
                raise PreconditionFailure(f"unknown config key {key!r}",
                                          field=key)
            cfg[key] = value
    for name, _, _, _ in params:
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            cfg[name] = env
    for name, _, _, _ in params:
        given = getattr(args, name)
        if given is not None:
            cfg[name] = given
    for name, kind, _, _ in params:
        if kind is not None:
            try:
                cfg[name] = _coerce(cfg[name], kind)
            except (TypeError, ValueError) as e:
                raise PreconditionFailure(
                    f"cannot parse {name} {cfg[name]!r} as {kind.__name__}",
                    field=name) from e
    return cfg


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise PreconditionFailure(f"missing required setting {key!r}",
                                  field=key)
    return cfg[key]


def _floats(cfg: dict, key: str, count: int | None) -> tuple:
    """Finite numbers from a setting given as "a,b,..." or a JSON list;
    count None accepts any length."""
    v = _require(cfg, key)
    try:
        parts = tuple(float(x) for x in (
            v if isinstance(v, (list, tuple)) else str(v).split(",")))
    except (TypeError, ValueError) as e:
        raise PreconditionFailure(f"cannot parse {key} {v!r}",
                                  field=key) from e
    if not all(math.isfinite(x) for x in parts):
        raise PreconditionFailure(f"{key} needs finite numbers, got {v!r}",
                                  field=key)
    if count is not None and len(parts) != count:
        raise PreconditionFailure(f"{key} needs {count} numbers", field=key)
    return parts


def _point(cfg: dict, key: str) -> complex:
    parts = _floats(cfg, key, None)
    if len(parts) not in (1, 2):
        raise PreconditionFailure(f"{key} needs re,im, got {cfg[key]!r}",
                                  field=key)
    return complex(*parts)


def _read(cfg: dict, key: str, parse):
    """parse() applied to the text of the file a setting names."""
    path = _require(cfg, key)
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as e:
        raise PreconditionFailure(f"cannot read {key}: {e}",
                                  field=key) from e
    except json.JSONDecodeError as e:
        raise PreconditionFailure(f"invalid {key} JSON: {e}",
                                  field=key) from e


def _depth(cfg: dict, max_index: int):
    """The depth setting (None when unset), checked against 0..max_index:
    the spec's materialized N, or MAX_DEPTH for spec-build."""
    depth = cfg["depth"]
    if depth is not None and not 0 <= depth <= max_index:
        raise PreconditionFailure(
            f"depth must be in 0..{max_index}, got {depth}", field="depth")
    return depth


def _emit(outdir: str, artifacts) -> list[str]:
    """Write (name, writer, *args) artifacts and return their names.

    Commands compute every value before they call this, so a refusal
    leaves no partial artifact behind."""
    for name, write, *args in artifacts:
        write(os.path.join(outdir, name), *args)
    return [name for name, *_ in artifacts]


def _rule_from_cfg(cfg: dict) -> CRule:
    rule = cfg["rule"]
    if rule == "affine":
        return CRule("affine", slope=cfg["slope"], offset=cfg["offset"])
    if rule == "factorial":
        return CRule("factorial", shift=cfg["shift"])
    if rule == "explicit":
        return CRule("explicit", values=_floats(cfg, "values", None))
    raise PreconditionFailure(f"unknown rule {rule!r}", field="rule")


def _shapes_from_obj(obj, field: str = "shapes") -> tuple:
    shapes = []
    for i, s in enumerate(obj):
        kind = s.get("kind")
        where = f"{field}[{i}]"
        if kind == "interval":
            shapes.append(pt.interval(float(s["a"]), float(s["b"])))
        elif kind == "disk":
            c = s["center"]
            center = complex(float(c[0]), float(c[1])) \
                if isinstance(c, (list, tuple)) else complex(float(c), 0.0)
            if "log_radius" in s:
                shapes.append(pt.disk(center,
                                      log_radius=float(s["log_radius"])))
            else:
                shapes.append(pt.disk(center, float(s["radius"])))
        elif kind == "arc":
            shapes.append(pt.arc(float(s["theta1"]), float(s["theta2"])))
        else:
            raise UnsupportedShape(f"unknown shape kind {kind!r}",
                                   field=where + ".kind")
    return tuple(shapes)


def cmd_spec_build(cfg: dict, outdir: str) -> list[str]:
    depth = _depth(cfg, MAX_DEPTH)
    spec = build_cantor_spec(cfg["a0"], cfg["b0"], _rule_from_cfg(cfg),
                             cfg["placement"], depth)
    cs = condition_sum(spec)
    build = {
        "root_length": spec.root_length,
        "gap_log_lengths": [g.log_length for g in spec.gaps],
        "sum_gap_lengths": sum_gap_lengths(spec),
        "set_length": cantor_length(spec),
        "condition_sum": {"partial": cs.partial,
                          "tail_bound": cs.tail_bound,
                          "total": cs.total, "satisfied": cs.satisfied},
    }
    return _emit(outdir, [("spec.json", write_text, spec_to_json(spec)),
                          ("build.json", write_json, build)])


def cmd_eval(cfg: dict, outdir: str) -> list[str]:
    spec = _read(cfg, "spec", spec_from_json)
    z = _point(cfg, "at")
    depth = _depth(cfg, spec.max_index)
    branch = cfg["branch"]
    if branch == "product":
        if depth is None:
            val, err, n_used = pr.eval_f(spec, z, tol=cfg["tol"])
        else:
            n_used = depth
            val = pr.eval_partial_product(spec, n_used, z)
            err = pr.tail_bound(spec, n_used, z).bound
    elif branch in ("d-plus", "h-plus"):
        n_used = depth if depth is not None else spec.max_index
        tag = pr.BranchTag.D_PLUS if branch == "d-plus" else \
            pr.BranchTag.H_PLUS
        val = pr.sqrt_branch(spec, n_used, z, tag)
        err = pr.tail_bound(spec, n_used, z).bound
    elif branch == "fine":
        if z.imag != 0.0:
            raise PreconditionFailure("fine boundary values live on the "
                                      "real axis", field="at")
        val, err, n_used = pr.fine_boundary_value(spec, z.real,
                                                  pr.BranchTag.H_PLUS,
                                                  tol=cfg["tol"])
    else:
        raise PreconditionFailure(f"unknown branch {branch!r}",
                                  field="branch")
    write_csv(os.path.join(outdir, "eval.csv"),
               ["z_re", "z_im", "log_mag", "arg", "err", "n_used"],
               [(z.real, z.imag, val.log_mag, val.arg, err, n_used)])
    return ["eval.csv"]


def cmd_capacity(cfg: dict, outdir: str) -> list[str]:
    obj = _read(cfg, "set", json.loads)
    if "shapes" in obj:
        tail = tuple(float(v) for v in obj.get("tail_inv_log_caps", ()))
        union = pt.CompactUnion(_shapes_from_obj(obj["shapes"]), tail)
        ub = pt.union_capacity_bound(union)
        out = {
            "members": ub.members,
            "log_bound": ub.log_bound,
            "bound": ub.bound,
            "inv_sum": ub.inv_sum,
            "rescale": ub.rescale,
        }
        if len(union.shapes) == 1 and not tail:
            out["exact_log_capacity"] = pt.exact_log_capacity(
                union.shapes[0])
    elif "spec" in obj or "blaschke" in obj:
        try:
            N = int(obj.get("N", 1))
        except (TypeError, ValueError) as e:
            raise PreconditionFailure(f"cannot parse N {obj['N']!r}",
                                      field="N") from e
        if "spec" in obj:
            fs = pt.cantor_fine_sets(
                spec_from_json(json.dumps(obj["spec"])), N)
            out = {"sum_segments": fs.sum_segments,
                   "cap_ambient_floor": fs.cap_ambient_floor}
        else:
            fs = bl.disk_fine_sets(
                bl.blaschke_spec_from_json(json.dumps(obj["blaschke"])), N)
            out = {"cap_arc": fs.cap_ambient_floor}
        out.update({
            "N": fs.N,
            "fn_log_bound": fs.fn_bound.log_bound,
            "fn_bound": fs.fn_bound.bound,
            "members": fs.fn_bound.members,
            "sum_disks": fs.sum_disks,
            "chain_closes": fs.chain_closes,
            "meshable_fn_shapes": len(fs.FN.shapes),
        })
    else:
        raise PreconditionFailure(
            "set JSON needs 'shapes', 'spec', or 'blaschke'", field="set")
    write_json(os.path.join(outdir, "capacity.json"), out)
    return ["capacity.json"]


def cmd_green(cfg: dict, outdir: str) -> list[str]:
    obj = _read(cfg, "set", json.loads)
    if "shapes" not in obj:
        raise PreconditionFailure("set JSON needs 'shapes'", field="set")
    union = pt.CompactUnion(_shapes_from_obj(obj["shapes"]))
    z = _point(cfg, "at")
    model = pt.leja_points(union, n=cfg["n"], mesh_per_shape=cfg["mesh"])
    value = pt.green_eval(model, z)
    rows = []
    for k, p in enumerate(model.points):
        d_k = model.d_seq[k - 1] if 1 <= k <= len(model.d_seq) else \
            float("nan")
        rows.append((k, p.real, p.imag, d_k))
    return _emit(outdir, [("green.json", write_json, {
        "n": len(model.points),
        "cap_estimate": model.cap_estimate,
        "log_cap_estimate": model.log_cap_estimate,
        "node_tol": model.node_tol,
        "at": [z.real, z.imag],
        "value": value,
    }), ("leja.csv", write_csv, ["k", "re", "im", "d_k"], rows)])


def cmd_sample_e(cfg: dict, outdir: str) -> list[str]:
    spec = _read(cfg, "spec", spec_from_json)
    depth = _require(cfg, "depth")
    rows = pt.sample_E(spec, depth, samples=cfg["samples"],
                       leja_n=cfg["leja_n"])
    write_csv(os.path.join(outdir, "esample.csv"), ["x", "u", "in_EN"],
               [(r.x, r.u, r.in_EN) for r in rows])
    return ["esample.csv"]


def cmd_hull_scan(cfg: dict, outdir: str) -> list[str]:
    spec = _read(cfg, "spec", spec_from_json)
    z = _point(cfg, "z")
    wrect = _floats(cfg, "wrect", 4)
    hps = hl.make_hull_spec(spec, cfg["depth"], scheme=cfg["scheme"])
    grid = hl.fiber_scan(hps, z, wrect, cfg["res"], sq=cfg["sq"],
                         delta=cfg["delta"])
    return _emit(outdir, [
        ("grid.csv", write_grid_csv, ["w_re", "w_im", "v"],
         *hl.grid_axes(grid.wrect, grid.res), grid.values),
        ("dips.json", write_json, hl.grid_report(grid))])


def cmd_blaschke(cfg: dict, outdir: str) -> list[str]:
    spec = _read(cfg, "spec", bl.blaschke_spec_from_json)
    out = []
    depth = _depth(cfg, spec.max_index)
    if depth is None:
        depth = spec.max_index
    if cfg["at"] is not None:
        z = _point(cfg, "at")
        if cfg["sheets"] is not None:
            k0, k1 = (int(v) for v in _floats(cfg, "sheets", 2))
            if k1 - k0 >= MAX_SHEETS:
                raise PreconditionFailure(
                    f"sheet range {k0},{k1} spans more than {MAX_SHEETS} "
                    "sheets", field="sheets")
        val = bl.eval_blaschke(spec, depth, z)
        try:
            tail = bl.blaschke_tail_bound(spec, depth, z)
        except PreconditionFailure:
            tail = float("nan")
        out.append(("blaschke.csv", write_csv,
                    ["z_re", "z_im", "log_mag", "arg", "tail"],
                    [(z.real, z.imag, val.log_mag, val.arg, tail)]))
        if cfg["sheets"] is not None:
            spacing = bl.fb_sheet_spacing(spec, z, depth).to_complex()
            ks = range(k0, k1 + 1)
            sheets = []
            for k, v in zip(ks, bl.fb_sheets(spec, ks, z, depth)):
                w = v.to_complex()
                sheets.append({"k": k, "re": w.real, "im": w.imag})
            out.append(("sheets.json", write_json, {
                "at": [z.real, z.imag],
                "depth": depth,
                "spacing": [spacing.real, spacing.imag],
                "sheets": sheets,
            }))
    elif cfg["sheets"] is not None:
        raise PreconditionFailure("--sheets needs --at", field="at")
    if cfg["sample_depth"] is not None:
        rows = bl.blaschke_sample_E(spec, cfg["sample_depth"],
                                    samples=cfg["samples"],
                                    leja_n=cfg["leja_n"])
        out.append(("bsample.csv", write_csv, ["theta", "u", "in_EN"],
                    [(r.theta, r.u, r.in_EN) for r in rows]))
    if not out:
        raise PreconditionFailure(
            "nothing to do: give --at, --sheets, or --sample-depth",
            field="at")
    return _emit(outdir, out)


def cmd_reproduce_all(cfg: dict, outdir: str) -> list[str]:
    from .acceptance import run_all, write_summary
    results = run_all(outdir)
    names = write_summary(results, outdir)
    for r in results:
        print(f"ACCEPTANCE {r.index:2d} {r.name}: "
              f"{'PASS' if r.passed else 'FAIL'}")
    return names


_DISPATCH = {
    "spec-build": cmd_spec_build,
    "eval": cmd_eval,
    "capacity": cmd_capacity,
    "green": cmd_green,
    "sample-e": cmd_sample_e,
    "hull-scan": cmd_hull_scan,
    "blaschke": cmd_blaschke,
    "reproduce-all": cmd_reproduce_all,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        cfg = _resolve(args, command)
        outdir = cfg["out"]
        os.makedirs(outdir, exist_ok=True)
        names = _DISPATCH[command](cfg, outdir)
        _write_manifest(outdir, command, cfg, names)
        for n in names:
            print(os.path.join(outdir, n))
    except PreconditionFailure as e:
        print(json.dumps(e.payload(), sort_keys=True))
        return 1
    except Exception as e:  # noqa: BLE001 - contract: assertion exit code
        print(json.dumps({"error": "internal",
                          "kind": type(e).__name__,
                          "message": str(e)}, sort_keys=True))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

import argparse
import json
import math
import os

import pytest

from finehull import cli
from finehull.cantor import spec_from_json


def run(argv, capsys):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def test_spec_build_writes_spec_and_summary(tmp_path, capsys):
    out = tmp_path / "cantor"
    rc, stdout = run(["spec-build", "--rule", "affine", "--slope", "5",
                      "--offset", "0", "--depth", "4",
                      "--out", str(out)], capsys)
    assert rc == 0
    spec = spec_from_json((out / "spec.json").read_text())
    assert spec.max_index == 4
    assert spec.gap(1).log_length == -5.0
    build = json.loads((out / "build.json").read_text())
    assert build["condition_sum"]["satisfied"] is True
    assert build["gap_log_lengths"] == [-5.0, -20.0, -45.0, -80.0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"spec.json", "build.json"}
    # stdout lists the artifact paths
    assert "spec.json" in stdout


def _spec_path(tmp_path, capsys, depth=8):
    out = tmp_path / "spec"
    rc, _ = run(["spec-build", "--rule", "affine", "--slope", "5",
                 "--offset", "0", "--depth", str(depth),
                 "--out", str(out)], capsys)
    assert rc == 0
    return str(out / "spec.json")


def test_eval_product(tmp_path, capsys):
    spec = _spec_path(tmp_path, capsys)
    out = tmp_path / "eval"
    rc, _ = run(["eval", "--spec", spec, "--at", "2,0",
                 "--out", str(out)], capsys)
    assert rc == 0
    header, row = (out / "eval.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert math.exp(float(vals["log_mag"])) == \
        pytest.approx(0.5022510389541788, rel=1e-10)
    assert float(vals["err"]) <= 1e-12


def test_eval_pole_maps_to_exit_code_one(tmp_path, capsys):
    spec = _spec_path(tmp_path, capsys)
    rc, stdout = run(["eval", "--spec", spec, "--at", "0,0",
                      "--out", str(tmp_path / "pole")], capsys)
    assert rc == 1
    payload = json.loads(stdout.strip().splitlines()[-1])
    assert payload["error"] == "pole_hit"


def test_eval_survives_an_underflowed_root_quotient(tmp_path, capsys):
    # (z - b0)/(z - a0) = 5e-324j / 2 rounds to 0, although z != b0
    out = tmp_path / "spec"
    rc, _ = run(["spec-build", "--b0", "2", "--depth", "4",
                 "--out", str(out)], capsys)
    assert rc == 0
    rc, _ = run(["eval", "--spec", str(out / "spec.json"),
                 "--at", "2,5e-324", "--depth", "2",
                 "--out", str(tmp_path / "eval")], capsys)
    assert rc == 0
    header, row = (tmp_path / "eval" / "eval.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["log_mag"]) == pytest.approx(-745.13, abs=0.01)


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"depht": 4}')
    rc, stdout = run(["spec-build", "--config", str(cfgfile),
                      "--out", str(tmp_path / "x")], capsys)
    assert rc == 1
    assert "depht" in stdout


def test_env_overrides_defaults_and_flags_override_env(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setenv("FINEHULL_DEPTH", "3")
    spec = _spec_path(tmp_path, capsys, depth=5)  # flag wins
    assert spec_from_json(open(spec).read()).max_index == 5
    out = tmp_path / "envonly"
    rc, _ = run(["spec-build", "--rule", "affine", "--slope", "5",
                 "--offset", "0", "--out", str(out)], capsys)
    assert rc == 0
    assert spec_from_json((out / "spec.json").read_text()).max_index == 3


def test_threads_and_out_never_reach_the_manifest(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc, _ = run(["spec-build", "--rule", "factorial", "--depth", "6",
                     "--out", str(out)], capsys)
        assert rc == 0
    assert (a / "manifest.json").read_bytes() == \
        (b / "manifest.json").read_bytes()
    assert (a / "spec.json").read_bytes() == (b / "spec.json").read_bytes()


@pytest.mark.parametrize("argv, field", [
    (["spec-build", "--depth", "x"], "depth"),
    (["spec-build", "--rule", "explicit", "--values", "a,b"], "values"),
    (["spec-build", "--slope", "nan"], "slope"),
    (["green", "--set", "{shapes}", "--at", "3,0", "--n", "4",
      "--mesh", "2"], "n"),
    (["hull-scan", "--spec", "{fact}", "--z", "nan,0",
      "--wrect=-1.5,1.5,-1.5,1.5"], "z"),
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,inf,-1.5,1.5"], "wrect"),
    (["eval", "--spec", "{spec}", "--at", "nan,0"], "at"),
    (["green", "--set", "{shapes}", "--at", "3,0", "--mesh", "1"], "mesh"),
    (["green", "--set", "{shapes}", "--at", "3,0", "--mesh", "0"], "mesh"),
    (["green", "--set", "{shapes}", "--at", "3,0", "--mesh=-3"], "mesh"),
    (["green", "--set", "{shapes}", "--at", "3,0", "--n", "100000"], "n"),
    (["capacity", "--set", "{fineset}"], "N"),
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2", "--sheets=0,1e9"],
     "sheets"),
    (["sample-e", "--spec", "{spec}", "--depth", "6", "--leja-n", "100000"],
     "leja_n"),
    (["blaschke", "--spec", "{disk}", "--sample-depth", "1",
      "--leja-n", "100000"], "leja_n"),
    (["sample-e", "--spec", "{spec}", "--depth", "6", "--samples", "0"],
     "samples"),
    (["sample-e", "--spec", "{spec}", "--depth", "6", "--samples", "4097"],
     "samples"),
    (["blaschke", "--spec", "{disk}", "--sample-depth", "1",
      "--samples", "0"], "samples"),
    (["blaschke", "--spec", "{disk}", "--sample-depth", "1",
      "--samples", "4097"], "samples"),
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,1.5,-1.5,1.5", "--res", "2049"], "res"),
    (["eval", "--spec", "{spec}", "--at", "2,0", "--depth", "-1"], "depth"),
    (["eval", "--spec", "{spec}", "--at", "2,0", "--depth", "9"], "depth"),
    (["eval", "--spec", "{spec}", "--at", "0.3,0.4", "--branch", "h-plus",
      "--depth", "-1"], "depth"),
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2", "--depth", "-1"],
     "depth"),
    (["spec-build", "--depth", "-1"], "depth"),
    (["spec-build", "--depth", "131073"], "depth"),
    (["eval", "--spec", "{deep}", "--at", "2,0"], "N"),
    (["blaschke", "--spec", "{extras}", "--at", "0.3,0.2"], "extras"),
    # refused after the first artifact is computed
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2", "--sample-depth",
      "1", "--samples", "0"], "samples"),
    # usage errors: argparse refusals exit 1 like every other refusal
    (["eval", "--bogus", "1"], "bogus"),
    (["eval", "--at"], "at"),
    (["eval", "--spec", "{spec}", "--at", "2,0", "--depth"], "depth"),
    # flags are never abbreviated: --leja is not read as --leja-n
    (["blaschke", "--spec", "{disk}", "--leja"], "leja"),
    (["blaschke", "--spec", "{disk}", "--s", "x"], "s"),
    (["hull-scan", "--sq=1"], "sq"),
    (["nosuch"], "command"),
    (["eval", "--dep", "3"], "dep"),
])
def test_malformed_input_exits_one_with_field(tmp_path, capsys, argv,
                                              field):
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps(
        {"shapes": [{"kind": "interval", "a": 0.0, "b": 1.0}]}))
    run(["spec-build", "--rule", "factorial", "--depth", "12",
         "--out", str(tmp_path / "fact")], capsys)
    spec = _spec_path(tmp_path, capsys)
    fineset = tmp_path / "fineset.json"
    fineset.write_text(json.dumps(
        {"spec": json.loads(open(spec).read()), "N": "x"}))
    disk_obj = {
        "alpha": 0.0, "beta": 1.5707963267948966,
        "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0},
        "N": 12,
    }
    disk = tmp_path / "disk.json"
    disk.write_text(json.dumps(disk_obj))
    # depths past cantor.MAX_DEPTH, refused before anything is allocated
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({**json.loads(open(spec).read()),
                                "N": 10 ** 9}))
    extras = tmp_path / "extras.json"
    extras.write_text(json.dumps({**disk_obj, "extras": 10 ** 9}))
    paths = {"shapes": str(shapes), "spec": spec,
             "fact": str(tmp_path / "fact" / "spec.json"),
             "fineset": str(fineset), "disk": str(disk), "deep": str(deep),
             "extras": str(extras)}
    out = tmp_path / "bad"
    rc, stdout = run([a.format(**paths) for a in argv] + ["--out", str(out)],
                     capsys)
    assert rc == 1
    line, = stdout.strip().splitlines()   # one JSON line, nothing else
    assert json.loads(line)["field"] == field
    # no artifact at all, not only no manifest
    assert not out.exists() or not any(out.iterdir())


def test_capacity_fine_sets(tmp_path, capsys):
    spec = _spec_path(tmp_path, capsys)
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps(
        {"spec": json.loads(open(spec).read()), "N": 2}))
    out = tmp_path / "cap"
    rc, _ = run(["capacity", "--set", str(setfile), "--out", str(out)],
                capsys)
    assert rc == 0
    cap = json.loads((out / "capacity.json").read_text())
    assert cap["chain_closes"] is True
    assert cap["fn_bound"] < cap["cap_ambient_floor"]


def test_green_on_shapes(tmp_path, capsys):
    setfile = tmp_path / "shapes.json"
    setfile.write_text(json.dumps(
        {"shapes": [{"kind": "interval", "a": 0.0, "b": 1.0}]}))
    out = tmp_path / "green"
    rc, _ = run(["green", "--set", str(setfile), "--at", "3,0",
                 "--n", "64", "--out", str(out)], capsys)
    assert rc == 0
    g = json.loads((out / "green.json").read_text())
    assert g["value"] > 0.0
    assert abs(g["cap_estimate"] - 0.25) / 0.25 < 0.05
    rows = (out / "leja.csv").read_text().splitlines()
    assert len(rows) == 65  # header plus one row per point


def test_sample_e(tmp_path, capsys):
    spec = _spec_path(tmp_path, capsys)
    out = tmp_path / "esample"
    rc, _ = run(["sample-e", "--spec", spec, "--depth", "6",
                 "--out", str(out)], capsys)
    assert rc == 0
    rows = (out / "esample.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    flags = [r.split(",")[2] for r in rows]
    assert flags.count("1") == 5


def test_hull_scan(tmp_path, capsys):
    out = tmp_path / "spec"
    run(["spec-build", "--rule", "factorial", "--depth", "12",
         "--out", str(out)], capsys)
    scan = tmp_path / "scan"
    rc, _ = run(["hull-scan", "--spec", str(out / "spec.json"),
                 "--z", "2,0", "--wrect=-1.5,1.5,-1.5,1.5", "--res", "64",
                 "--sq", "--depth", "6", "--out", str(scan)], capsys)
    assert rc == 0
    report = json.loads((scan / "dips.json").read_text())
    assert len(report["dips"]) == 2
    grid_lines = (scan / "grid.csv").read_text().splitlines()
    assert len(grid_lines) == 64 * 64 + 1


def test_blaschke_command(tmp_path, capsys):
    setfile = tmp_path / "disk.json"
    setfile.write_text(json.dumps({
        "alpha": 0.0, "beta": 1.5707963267948966,
        "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0},
        "N": 12,
    }))
    out = tmp_path / "disk"
    rc, _ = run(["blaschke", "--spec", str(setfile), "--at", "0.3,0.2",
                 "--sheets=-3,3", "--sample-depth", "1", "--samples", "8",
                 "--out", str(out)], capsys)
    assert rc == 0
    sheets = json.loads((out / "sheets.json").read_text())
    assert len(sheets["sheets"]) == 7
    rows = (out / "bsample.csv").read_text().splitlines()[1:]
    assert len(rows) == 8


def test_outputs_are_deterministic(tmp_path, capsys):
    digests = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc, _ = run(["spec-build", "--rule", "affine", "--slope", "2",
                     "--offset", "1", "--depth", "10", "--out", str(out)],
                    capsys)
        assert rc == 0
        digests.append((out / "manifest.json").read_bytes())
    assert digests[0] == digests[1]


def test_usage_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: finehull eval")


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps(
        {"shapes": [{"kind": "interval", "a": 0.0, "b": 1.0}]}))
    spec = _spec_path(tmp_path, capsys, depth=4)
    calls = [
        (["spec-build", "--depth", "3"], 0),
        (["eval", "--spec", spec, "--at", "2,0"], 0),
        (["eval", "--spec", spec, "--at", "0.3,0.4", "--branch", "h-plus"],
         0),
        (["eval", "--spec", spec, "--at", "0,0"], 1),
        (["capacity", "--set", str(shapes)], 0),
        (["eval", "--bogus", "1"], 1),
        (["eval", "--at"], 1),
        (["nosuch"], 1),
        (["spec-build", "--depth", "x"], 1),
        (["spec-build", "--rule", "factorial", "--depth", "5"], 0),
    ] * 2
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for i, (argv, code) in enumerate(calls):
        rc, _ = run(argv + ["--out", str(tmp_path / f"c{i}")], capsys)
        assert rc == code, argv
    assert built == ["finehull"] + [f"finehull {c}" for c in cli._PARAMS]


def test_calls_in_one_process_share_no_settings(tmp_path, capsys):
    spec = _spec_path(tmp_path, capsys)
    calls = {
        "eval2": ["eval", "--spec", spec, "--at", "2,0", "--depth", "2"],
        "eval": ["eval", "--spec", spec, "--at", "2,0"],
        "build": ["spec-build", "--depth", "6"],
    }
    manifests = {}
    for order in (("eval2", "eval", "build"), ("build", "eval", "eval2")):
        for key in order:
            out = tmp_path / f"{order[0]}-{key}"
            rc, _ = run(calls[key] + ["--out", str(out)], capsys)
            assert rc == 0
            manifest = (out / "manifest.json").read_bytes()
            assert manifests.setdefault(key, manifest) == manifest, key
    assert json.loads(manifests["eval"])["config"]["depth"] is None

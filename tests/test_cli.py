import argparse
import json
import math
import os
import pathlib

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
    assert spec_from_json(pathlib.Path(spec).read_text()).max_index == 5
    out = tmp_path / "envonly"
    rc, _ = run(["spec-build", "--rule", "affine", "--slope", "5",
                 "--offset", "0", "--out", str(out)], capsys)
    assert rc == 0
    assert spec_from_json((out / "spec.json").read_text()).max_index == 3


@pytest.mark.parametrize("key, field", [
    # the removed green --mesh, a misspelt depth, a name read as upper case
    ("FINEHULL_MESH", "mesh"), ("FINEHULL_DEPHT", "depht"),
    ("FINEHULL_n", "n"),
])
def test_an_environment_variable_naming_no_setting_is_refused(
        tmp_path, capsys, monkeypatch, key, field):
    (tmp_path / "set.json").write_text(json.dumps(SHAPE_SET))
    monkeypatch.setenv(key, "4")
    out = tmp_path / "green"
    rc, stdout = run(["green", "--set", str(tmp_path / "set.json"),
                      "--at", "3,0", "--out", str(out)], capsys)
    assert rc == 1, stdout
    payload = json.loads(stdout)
    assert payload["field"] == field and key in payload["message"]
    assert not out.exists()


def test_a_setting_of_another_command_in_the_environment_is_accepted(
        tmp_path, capsys, monkeypatch):
    spec = _spec_path(tmp_path, capsys)
    monkeypatch.setenv("FINEHULL_RES", "64")        # a hull-scan setting
    rc, stdout = run(["eval", "--spec", spec, "--at", "2,0",
                      "--out", str(tmp_path / "eval")], capsys)
    assert rc == 0, stdout
    manifest = json.loads((tmp_path / "eval" / "manifest.json").read_text())
    assert "res" not in manifest["config"]


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
    (["hull-scan", "--spec", "{fact}", "--z", "nan,0",
      "--wrect=-1.5,1.5,-1.5,1.5"], "z"),
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,inf,-1.5,1.5"], "wrect"),
    (["eval", "--spec", "{spec}", "--at", "nan,0"], "at"),
    # a point the branch refuses: off the H domain, outside E_N
    (["eval", "--spec", "{spec}", "--at", "2,0", "--branch", "h-plus"], "at"),
    (["eval", "--spec", "{spec}", "--at", "2,0", "--branch", "fine"], "at"),
    # the mesh is fixed per shape kind: --mesh is an unknown flag
    (["green", "--set", "{shapes}", "--at", "3,0", "--mesh", "4"], "mesh"),
    (["green", "--set", "{shapes}", "--at", "3,0", "--n", "100000"], "n"),
    (["capacity", "--set", "{fineset}"], "N"),
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2", "--sheets=0,1e9"],
     "sheets"),
    # sheet indices past 2^53: 2 pi k overflows, or only the sheets do
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2",
      f"--sheets={10 ** 400},{10 ** 400}"], "sheets"),
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2",
      f"--sheets={10 ** 308},{10 ** 308}"], "sheets"),
    # 2 pi i B_4 overflows while sheet 0 is finite
    (["blaschke", "--spec", "{order1023}", "--at=1.9988,0", "--sheets=0,0"],
     "at"),
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
    # the rule removes more than the root interval holds
    (["spec-build", "--slope", "1e-300", "--offset", "0", "--depth", "5"],
     "rule"),
    # the condition sum 1/(j c_j) overflows
    (["spec-build", "--slope=2.225073858507e-311", "--depth=0"], "rule"),
    # c(1) = (1 + shift)! is inf from shift 170 on
    (["spec-build", "--rule", "factorial", "--shift", str(10 ** 400),
      "--depth", "1"], "rule"),
    (["spec-build", "--rule", "factorial", "--shift", str(10 ** 400),
      "--depth", "0"], "rule"),
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,1.5,-1.5,1.5", "--depth", "0"], "depth"),
    # refused before a weight list of that length is built
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,1.5,-1.5,1.5", "--depth", "1000000000"], "depth"),
    (["hull-scan", "--spec", "{fact}", "--z", "0,0",
      "--wrect=-1.5,1.5,-1.5,1.5"], "z"),     # the pole a0
    (["hull-scan", "--spec", "{fact}", "--z", "1e300,0",
      "--wrect=-1.5,1.5,-1.5,1.5"], "z"),     # P_n(z) overflows
    # the window's span overflows, so its grid is not finite
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1e308,1.7e308,-1.5,1.5"], "wrect"),
    (["blaschke", "--spec", "{disk}", "--at=-3,0", "--sheets=-1,1"], "at"),
    (["blaschke", "--spec", "{extras}", "--at", "0.3,0.2"], "extras"),
    (["blaschke", "--spec", "{order}", "--at", "0.3,0.2"], "l"),
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
    # sample refusals name the flag, not the library's depth N
    (["blaschke", "--spec", "{disk}", "--sample-depth", "4"],
     "sample_depth"),   # no protection disk from 4 on is meshable
    (["sample-e", "--spec", "{spec}", "--depth", "0"], "depth"),
    (["sample-e", "--spec", "{spec}", "--depth", "1"], "depth"),  # no chain
    (["sample-e", "--spec", "{weak}", "--depth", "4"],
     "spec"),   # the summability condition is not certified
    # the explicit rule is shorter than the depth (the library's N)
    (["spec-build", "--rule", "explicit", "--values", "1,2", "--depth", "5"],
     "depth"),
    # no arc candidate passes both conditions: the sample was too small
    (["blaschke", "--spec", "{dfact}", "--sample-depth", "1", "--samples",
      "1"], "samples"),
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
        {"spec": json.loads(pathlib.Path(spec).read_text()), "N": "x"}))
    disk_obj = {
        "alpha": 0.0, "beta": 1.5707963267948966,
        "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0},
        "N": 12,
    }
    disk = tmp_path / "disk.json"
    disk.write_text(json.dumps(disk_obj))
    # depths past cantor.MAX_DEPTH, refused before anything is allocated
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({**json.loads(pathlib.Path(spec).read_text()),
                                "N": 10 ** 9}))
    extras = tmp_path / "extras.json"
    extras.write_text(json.dumps({**disk_obj, "extras": 10 ** 9}))
    dfact = tmp_path / "dfact.json"
    dfact.write_text(json.dumps({"alpha": 0, "beta": 0.5, "N": 12, "c_rule": {
        "kind": "factorial", "shift": 2}}))
    order = tmp_path / "order.json"
    order.write_text(json.dumps({**disk_obj, "l": 10 ** 400}))
    order1023 = tmp_path / "order1023.json"
    order1023.write_text(json.dumps({**disk_obj, "N": 4, "l": 1023}))
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps({
        **json.loads(pathlib.Path(spec).read_text()),
        "c_rule": {"kind": "affine", "slope": 0.05, "offset": 1.0}}))
    paths = {"shapes": str(shapes), "spec": spec, "weak": str(weak),
             "fact": str(tmp_path / "fact" / "spec.json"),
             "fineset": str(fineset), "disk": str(disk), "deep": str(deep),
             "extras": str(extras), "order": str(order),
             "order1023": str(order1023), "dfact": str(dfact)}
    out = tmp_path / "bad"
    rc, stdout = run([a.format(**paths) for a in argv] + ["--out", str(out)],
                     capsys)
    assert rc == 1
    line, = stdout.strip().splitlines()   # one JSON line, nothing else
    assert json.loads(line)["field"] == field
    # no artifact at all, not only no manifest
    assert not out.exists() or not any(out.iterdir())


SHAPE_SET = {"shapes": [{"kind": "interval", "a": 0.0, "b": 1.0}]}
SPEC_JSON = {"a0": 0.0, "b0": 1.0, "N": 8,
             "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0}}


@pytest.mark.parametrize("argv, payload, field", [
    # non-finite or overflowing shape parameters; JSON 1e400 reads as inf
    (["capacity"], '{"shapes": [{"kind": "disk", "center": 0, '
                   '"radius": 1e400}]}', "shapes[0].radius"),
    (["green", "--at", "3,0"], '{"shapes": [{"kind": "disk", "center": 0, '
                               '"radius": 1e400}]}', "shapes[0].radius"),
    (["capacity"], '{"shapes": [{"kind": "disk", "center": 0, '
                   '"log_radius": 1e400}]}', "shapes[0].log_radius"),
    (["capacity"], '{"shapes": [{"kind": "disk", "center": 0, '
                   '"log_radius": 800}]}', "shapes[0].log_radius"),
    (["capacity"], '{"shapes": [{"kind": "interval", "a": 0, '
                   '"b": 1e400}]}', "shapes[0].b"),
    (["capacity"], '{"shapes": [{"kind": "disk", "center": 1e400, '
                   '"radius": 1}]}', "shapes[0].center"),
    (["capacity"], {"shapes": [{"kind": "interval", "a": -1e308,
                                "b": 1e308}]}, "shapes[0].b"),
    (["capacity"], {"shapes": [{"kind": "disk", "center": -1e308,
                                "radius": 1.0},
                               {"kind": "disk", "center": 1e308,
                                "radius": 1.0}]}, "shapes"),
    # malformed JSON structure
    (["capacity"], {"shapes": [1]}, "shapes[0]"),
    (["capacity"], {"shapes": [{"kind": "interval", "b": 1.0}]},
     "shapes[0].a"),
    (["capacity"], {"shapes": 3}, "shapes"),
    (["capacity"], {"shapes": [{"kind": "disk", "center": "x",
                                "radius": 1.0}]}, "shapes[0].center"),
    (["capacity"], {"shapes": [{"kind": "disk", "center": [1.0],
                                "radius": 1.0}]}, "shapes[0].center"),
    (["capacity"], {**SHAPE_SET, "tail_inv_log_caps": ["x"]},
     "tail_inv_log_caps"),
    (["capacity"], {"shapes": []}, "shapes"),
    (["capacity"], [1], "set"),
    (["capacity"], 3, "set"),
    (["green", "--at", "3,0"], "shapes", "set"),
    # the 17 candidates round to fewer than 5 distinct doubles
    (["green", "--at", "3,0", "--n", "4"],
     {"shapes": [{"kind": "interval", "a": 1e6, "b": 1e6 + 2.5e-10}]}, "n"),
    # a fine-set depth is refused, not truncated to 2
    (["capacity"], {"spec": SPEC_JSON, "N": 2.5}, "N"),
])
def test_malformed_set_json_names_its_key(tmp_path, capsys, argv, payload,
                                          field):
    path = tmp_path / "set.json"
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    out = tmp_path / "out"
    rc, stdout = run(argv[:1] + ["--set", str(path)] + argv[1:] +
                     ["--out", str(out)], capsys)
    assert rc == 1
    assert json.loads(stdout)["field"] == field
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("edit, field", [
    ({"N": "x"}, "N"),
    ({"N": 1e300}, "N"),
    ({"c_rule": 5}, "c_rule"),
    ({"c_rule": {"kind": "affine", "slope": "x"}}, "c_rule"),
    ({"c_rule": {"kind": "explicit", "values": 3}}, "c_rule"),
    ({"a0": [0]}, "a0"),
    # depths and shifts are refused, not truncated
    ({"N": 16.7}, "N"),
    ({"N": True}, "N"),
    ({"c_rule": {"kind": "factorial", "shift": 2.7}}, "c_rule"),
])
def test_malformed_spec_json_names_its_key(tmp_path, capsys, edit, field):
    spec = json.loads(pathlib.Path(_spec_path(tmp_path, capsys)).read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**spec, **edit}))
    rc, stdout = run(["eval", "--spec", str(path), "--at", "2,0",
                      "--out", str(tmp_path / "e")], capsys)
    assert rc == 1
    assert json.loads(stdout)["field"] == field


# numbers that a parser would round are refused, from every source
@pytest.mark.parametrize("argv, config, env, field", [
    (["spec-build"], {"depth": 2.9}, {}, "depth"),
    (["spec-build"], {"depth": True}, {}, "depth"),
    (["spec-build"], {}, {"FINEHULL_DEPTH": "2.9"}, "depth"),
    (["spec-build", "--rule", "factorial"], {"shift": 2.7}, {}, "shift"),
    (["sample-e", "--spec", "{spec}", "--depth", "6"], {"samples": 3.99}, {},
     "samples"),
    (["sample-e", "--spec", "{spec}"], {"depth": 6.5}, {}, "depth"),
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2",
      "--sheets=-3.5,3.9"], None, {}, "sheets"),
    (["blaschke", "--spec", "{disk}", "--at", "0.3,0.2"],
     {"sheets": [-3, 3.5]}, {}, "sheets"),
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,1.5,-1.5,1.5"], None, {"FINEHULL_SQ": "banana"}, "sq"),
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,1.5,-1.5,1.5"], {"sq": 2}, {}, "sq"),
    (["hull-scan", "--spec", "{fact}", "--z", "2,0",
      "--wrect=-1.5,1.5,-1.5,1.5"], {"sq": None}, {}, "sq"),
    (["eval", "--spec", "{spec}"], {"at": [True, 0.5]}, {}, "at"),
    (["green", "--set", "{shapes}", "--at", "3,0"], {"n": 8.5}, {}, "n"),
])
def test_numbers_are_refused_not_rounded(tmp_path, capsys, monkeypatch,
                                          argv, config, env, field):
    spec = json.loads(pathlib.Path(_spec_path(tmp_path, capsys)).read_text())
    files = {
        "spec": spec, "shapes": SHAPE_SET,
        "fact": {**spec, "c_rule": {"kind": "factorial", "shift": 2}},
        "disk": {"alpha": 0.0, "beta": 1.5707963267948966, "N": 12,
                 "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0}},
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(paths[name]).write_text(json.dumps(obj))
    argv = [a.format(**paths) for a in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "bad"
    rc, stdout = run(argv + ["--out", str(out)], capsys)
    assert rc == 1, stdout
    assert json.loads(stdout)["field"] == field
    assert not out.exists() or not any(out.iterdir())


# every typed setting whose default is not None, by command
TYPED_DEFAULTS = [(command, name) for command, params in cli._PARAMS.items()
                  for name, kind, default, _ in params + cli._COMMON
                  if kind is not None and default is not None]


@pytest.mark.parametrize("command, name", TYPED_DEFAULTS)
def test_a_null_setting_is_refused_naming_it(tmp_path, capsys, monkeypatch,
                                             command, name):
    # a JSON null reached the command as None and failed there (exit 2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({name: None}))
    rc, stdout = run([command, "--config", "cfg.json"], capsys)
    assert rc == 1, stdout
    assert json.loads(stdout)["field"] == name
    assert not (tmp_path / "out").exists()


def test_a_null_setting_without_a_default_stays_unset(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"values": None,
                                                   "depth": 3}))
    rc, _ = run(["spec-build", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "s")], capsys)
    assert rc == 0
    spec = str(tmp_path / "s" / "spec.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"depth": None}))
    rc, _ = run(["eval", "--spec", spec, "--at", "2,0", "--config",
                 str(tmp_path / "cfg.json"), "--out", str(tmp_path / "e")],
                capsys)
    assert rc == 0      # the adaptive depth


@pytest.mark.parametrize("config, env", [
    ({"depth": 5.0}, {}), ({"depth": "5"}, {}), ({}, {"FINEHULL_DEPTH": "5"}),
    ({"depth": 5, "shift": 2.0, "slope": 5}, {}),
])
def test_integral_numbers_keep_their_bytes(tmp_path, capsys, monkeypatch,
                                           config, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    rc, _ = run(["spec-build", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "a")], capsys)
    assert rc == 0
    monkeypatch.delenv("FINEHULL_DEPTH", raising=False)
    rc, _ = run(["spec-build", "--depth", "5", "--out", str(tmp_path / "b")],
                capsys)
    assert rc == 0
    for name in ("spec.json", "build.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("sq", ["1", "true", "YES", " On ", True])
def test_switch_words_set_the_switch(tmp_path, capsys, monkeypatch, sq):
    rc, _ = run(["spec-build", "--rule", "factorial", "--depth", "12",
                 "--out", str(tmp_path / "fact")], capsys)
    assert rc == 0
    spec = str(tmp_path / "fact" / "spec.json")
    argv = ["hull-scan", "--spec", spec, "--z", "2,0",
            "--wrect=-1.5,1.5,-1.5,1.5", "--res", "64", "--depth", "4"]
    rc, _ = run(argv + ["--sq", "--out", str(tmp_path / "flag")], capsys)
    assert rc == 0
    if isinstance(sq, bool):
        (tmp_path / "cfg.json").write_text(json.dumps({"sq": sq}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    else:
        monkeypatch.setenv("FINEHULL_SQ", sq)
    rc, _ = run(argv + ["--out", str(tmp_path / "word")], capsys)
    assert rc == 0
    for name in ("grid.csv", "dips.json", "manifest.json"):
        assert (tmp_path / "flag" / name).read_bytes() == \
            (tmp_path / "word" / name).read_bytes()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc, stdout = run(["spec-build", "--config", str(cfg),
                      "--out", str(tmp_path / "s")], capsys)
    assert rc == 1
    assert json.loads(stdout)["field"] == "config"


@pytest.mark.parametrize("at, branch", [
    ("1e308,1e308", "product"), ("1e308,1e308", "d-plus"),
    ("-1e308,-1e308", "product"), ("-1e308,1e308", "h-plus")])
def test_eval_at_huge_points_is_finite(tmp_path, capsys, at, branch):
    # complex division makes (z - 1)/z nan here; f tends to 1 at infinity
    spec = _spec_path(tmp_path, capsys, depth=3)
    out = tmp_path / "e"
    rc, _ = run(["eval", "--spec", spec, f"--at={at}", "--branch", branch,
                 "--out", str(out)], capsys)
    assert rc == 0
    header, row = (out / "eval.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert abs(float(vals["log_mag"])) < 1e-300
    assert all(math.isfinite(float(v)) for v in vals.values())


@pytest.mark.parametrize("at, log_mag", [("1.7e308,0", -0.4795730802618862),
                                         ("-1.7e308,0", 0.4795730802618863)])
def test_eval_where_the_root_quotient_overflows(tmp_path, capsys, at,
                                                log_mag):
    # z - a0 or z - b0 rounds to infinity: log|f| was -inf or inf (exit 1)
    rc, _ = run(["spec-build", "--a0=-4e307", "--b0=4e307", "--depth", "4",
                 "--out", str(tmp_path / "s")], capsys)
    assert rc == 0
    rc, _ = run(["eval", "--spec", str(tmp_path / "s" / "spec.json"),
                 f"--at={at}", "--out", str(tmp_path / "e")], capsys)
    assert rc == 0
    header, row = (tmp_path / "e" / "eval.csv").read_text().splitlines()
    got = float(dict(zip(header.split(","), row.split(",")))["log_mag"])
    assert got == pytest.approx(log_mag, rel=1e-15)


def test_capacity_of_disks_whose_centers_sum_past_the_largest_double(
        tmp_path, capsys):
    # the mean center overflowed and the set was refused naming shapes
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"shapes": [
        {"kind": "disk", "center": [-1.2e308, -1.2e308], "radius": 1},
        {"kind": "disk", "center": [-1.19e308, -1.2e308], "radius": 1}]}))
    rc, _ = run(["capacity", "--set", str(path), "--out", str(tmp_path / "c")],
                capsys)
    assert rc == 0
    out = json.loads((tmp_path / "c" / "capacity.json").read_text())
    assert out["members"] == 2 and math.isfinite(out["log_bound"])


@pytest.mark.parametrize("at", ["1.7e308,1.7e308", "1,0"])
def test_eval_refuses_a_point_without_a_finite_value(tmp_path, capsys, at):
    # |z| overflows; f vanishes at b0 = 1, so log|f| would be -inf
    spec = _spec_path(tmp_path, capsys)
    rc, stdout = run(["eval", "--spec", spec, f"--at={at}",
                      "--out", str(tmp_path / "e")], capsys)
    assert rc == 1
    assert json.loads(stdout)["field"] == "at"


@pytest.mark.parametrize("argv, field", [
    (["--depth", "3"], "spec"),
    (["--branch", "d-plus"], "spec"),
    ([], "tol"),    # NoConvergence: the adaptive depth never meets tol
])
def test_eval_rule_refusals_do_not_name_the_point(tmp_path, capsys, argv,
                                                  field):
    # c(j) = 0.05 j does not certify halving: the spec is at fault, not --at
    rc, _ = run(["spec-build", "--rule", "affine", "--slope", "0.05",
                 "--offset", "0", "--b0", "10", "--depth", "6",
                 "--out", str(tmp_path / "s")], capsys)
    assert rc == 0
    rc, stdout = run(["eval", "--spec", str(tmp_path / "s" / "spec.json"),
                      "--at", "3,1", "--out", str(tmp_path / "e")] + argv,
                     capsys)
    assert rc == 1
    assert json.loads(stdout).get("field") == field


def test_fine_value_above_tol_names_tol(tmp_path, capsys):
    # c(j) = 2j at depth 2 certifies the point but leaves a tail bound of
    # ~2e-7, above the default tol: the setting is at fault, not --at
    rc, _ = run(["spec-build", "--rule", "affine", "--slope", "2",
                 "--offset", "0", "--depth", "2",
                 "--out", str(tmp_path / "s")], capsys)
    assert rc == 0
    spec = spec_from_json((tmp_path / "s" / "spec.json").read_text())
    lo, hi = max(spec.remaining, key=lambda p: p[1] - p[0])
    x = lo + (hi - lo) / 3.0
    rc, stdout = run(["eval", "--spec", str(tmp_path / "s" / "spec.json"),
                      "--branch", "fine", "--at", f"{x!r},0",
                      "--out", str(tmp_path / "e")], capsys)
    assert rc == 1
    out = json.loads(stdout)
    assert (out["error"], out["field"]) == ("no_convergence", "tol")


def test_capacity_fine_sets(tmp_path, capsys):
    spec = _spec_path(tmp_path, capsys)
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps(
        {"spec": json.loads(pathlib.Path(spec).read_text()), "N": 2}))
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
    # d_k needs two nodes: row k = 0 leaves the cell empty
    assert rows[1].endswith(",") and rows[1].split(",")[0] == "0"
    assert all(r.split(",")[3] for r in rows[2:])


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


def test_hull_scan_past_the_largest_double_answers(tmp_path, capsys):
    # w Q_n(z) overflows on this window, but the factored potential
    # measures its distances at a power-of-two scale
    out = tmp_path / "spec"
    run(["spec-build", "--rule", "factorial", "--depth", "12",
         "--out", str(out)], capsys)
    scan = tmp_path / "scan"
    rc, _ = run(["hull-scan", "--spec", str(out / "spec.json"),
                 "--z", "2,0", "--wrect=1e308,1.7e308,-1.5,1.5",
                 "--res", "64", "--out", str(scan)], capsys)
    assert rc == 0
    assert json.loads((scan / "dips.json").read_text())["dips"] == []


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


def _disk_spec(tmp_path, slope, offset, N):
    path = tmp_path / f"disk{slope}-{N}.json"
    path.write_text(json.dumps({
        "alpha": 0.0, "beta": 1.5707963267948966,
        "c_rule": {"kind": "affine", "slope": slope, "offset": offset},
        "N": N,
    }))
    return str(path)


_THETA5 = 0.5 * math.pi * 0.625          # van_der_corput(5) = 5/8


@pytest.mark.parametrize("slope, offset, N, extras, at, depth", [
    # at the argument of would-be zero 5 of a depth-4 spec a distance
    # condition past N = 4 fails: the bound is refused
    (0.05, 1.0, 4, 0, f"{math.cos(_THETA5)!r},{math.sin(_THETA5)!r}", "4"),
    # 1e-10 from extra 1's pole the bound is inf
    (5.0, 0.0, 12, 3, "-1.414213562273095,-1.4142135623730951", "0"),
], ids=["refused", "infinite"])
def test_blaschke_refused_tail_is_an_empty_cell(tmp_path, capsys, slope,
                                                offset, N, extras, at,
                                                depth):
    # no certified tail, and no NaN or inf either
    spec = tmp_path / "spec.json"
    with open(_disk_spec(tmp_path, slope, offset, N)) as fh:
        spec.write_text(json.dumps({**json.load(fh), "extras": extras}))
    out = tmp_path / "out"
    rc, _ = run(["blaschke", "--spec", str(spec), f"--at={at}",
                 "--depth", depth, "--out", str(out)], capsys)
    assert rc == 0
    header, row = (out / "blaschke.csv").read_text().splitlines()
    assert header.split(",")[-1] == "tail"
    assert row.endswith(",") and "nan" not in row and "inf" not in row


def test_capacity_of_a_disk_chain_without_meshable_disks(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    with open(_disk_spec(tmp_path, 5.0, 0.0, 12)) as fh:
        setfile.write_text(json.dumps({"blaschke": json.load(fh), "N": 4}))
    out = tmp_path / "cap"
    rc, _ = run(["capacity", "--set", str(setfile), "--out", str(out)],
                capsys)
    assert rc == 0
    cap = json.loads((out / "capacity.json").read_text())
    assert cap["meshable_fn_shapes"] == 0
    assert cap["chain_closes"] is True
    assert cap["fn_bound"] < cap["cap_arc"]


# c_j = 0.5 j + 3 on an arc of angle 3: the chain does not close at N = 1
OPEN_DISK = {"alpha": 0, "beta": 3.0, "N": 16,
             "c_rule": {"kind": "affine", "slope": 0.5, "offset": 3}}


def test_capacity_of_a_disk_chain_that_does_not_close(tmp_path, capsys):
    # a verdict, as for an interval chain, not a refusal
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps({"blaschke": OPEN_DISK, "N": 1}))
    out = tmp_path / "cap"
    rc, stdout = run(["capacity", "--set", str(setfile), "--out", str(out)],
                     capsys)
    assert rc == 0, stdout
    cap = json.loads((out / "capacity.json").read_text())
    assert cap["chain_closes"] is False
    assert cap["fn_bound"] >= cap["cap_arc"]


def test_samples_refuse_a_chain_that_does_not_close(tmp_path, capsys):
    disk = tmp_path / "disk.json"
    disk.write_text(json.dumps(OPEN_DISK))
    for argv, field in (
            (["sample-e", "--spec", _spec_path(tmp_path, capsys),
              "--depth", "1"], "depth"),
            (["blaschke", "--spec", str(disk), "--sample-depth", "1"],
             "sample_depth")):
        rc, stdout = run(argv + ["--out", str(tmp_path / "s")], capsys)
        assert rc == 1
        out = json.loads(stdout)
        assert (out["error"], out["field"]) == ("chain_not_closed", field)


# j c_j = j (j + 2)! overflows from j = 169 on: those poles have disks of
# capacity 0, which the chain leaves out
FACTORIAL_DISK_200 = {"alpha": 0, "beta": 1.5, "N": 200,
                      "c_rule": {"kind": "factorial", "shift": 2}}


def test_capacity_of_a_disk_chain_past_factorial_overflow(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps({"blaschke": FACTORIAL_DISK_200, "N": 1}))
    out = tmp_path / "cap"
    rc, stdout = run(["capacity", "--set", str(setfile), "--out", str(out)],
                     capsys)
    assert rc == 0, stdout
    cap = json.loads((out / "capacity.json").read_text())
    assert cap["chain_closes"] is True
    assert cap["meshable_fn_shapes"] == 2


def test_arc_sample_past_factorial_overflow(tmp_path, capsys):
    spec = tmp_path / "disk.json"
    spec.write_text(json.dumps(FACTORIAL_DISK_200))
    out = tmp_path / "sample"
    rc, stdout = run(["blaschke", "--spec", str(spec), "--sample-depth", "1",
                      "--out", str(out)], capsys)
    assert rc == 0, stdout
    assert (out / "bsample.csv").exists()


def test_capacity_of_a_cantor_chain_without_meshable_members(tmp_path,
                                                             capsys):
    # every gap of this spec has length 0.0: F_N holds no meshable shape,
    # yet the analytic chain bound answers
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps({"spec": {
        "a0": -1.94, "b0": 7.8e-44, "N": 22,
        "c_rule": {"kind": "factorial", "shift": 83}}}))
    out = tmp_path / "cap"
    rc, stdout = run(["capacity", "--set", str(setfile), "--out", str(out)],
                     capsys)
    assert rc == 0, stdout
    cap = json.loads((out / "capacity.json").read_text())
    assert cap["meshable_fn_shapes"] == 0
    assert cap["chain_closes"] is True


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

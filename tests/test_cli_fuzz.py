"""The CLI's exit contract under drawn inputs.

Every command ends in exit 0 or exit 1.  An exit 1 prints one JSON line
that names the offending setting in `field`; an exit 0 leaves no NaN or
infinity in any artifact.  Inputs are drawn over every double (NaN,
infinities, subnormals and the largest finite values included) and over
malformed JSON structure.  The suite's derandomized profile replays the
same draws on every run; fresh draws:

    HYPOTHESIS_PROFILE=random python -m pytest -q tests/test_cli_fuzz.py
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from finehull import cli

SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 1e308, -1e308, 1.7e308,
           -1.7e308, float("inf"), float("-inf"), float("nan")]


def _mostly(good, bad, odds=3):
    """Draws that are well-formed `odds` times out of `odds` + 1, so that
    most commands run to their end, and otherwise malformed."""
    return st.integers(0, odds).flatmap(
        lambda k: bad if k == odds else good)


extreme = st.one_of(st.sampled_from(SPECIAL), st.floats())
numbers = _mostly(st.one_of(st.floats(-4.0, 4.0),
                            st.integers(-3, 20).map(float)), extreme)
junk = st.recursive(
    st.one_of(extreme, st.none(), st.booleans(), st.integers(-5, 10 ** 12),
              st.sampled_from(["x", "1", ""])),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.sampled_from(["kind", "a",
                                                            "N", "x"]),
                                           kids, max_size=3)),
    max_leaves=6)
texts = _mostly(numbers.map(repr), st.sampled_from(["x", "", "1,2"]))
points = _mostly(st.tuples(numbers, numbers).map(
    lambda p: f"{p[0]!r},{p[1]!r}"), texts)
# a decimal integer past the double range
HUGE = str(10 ** 400)
ints = _mostly(st.integers(-1, 12).map(str),
               st.sampled_from(["x", "1.5", "131073", "1000000000", HUGE]))


def _obj(required, **optional):
    """A JSON object of drawn values; a required key is left out now and
    then, and a junk value can stand for any value."""
    return _mostly(
        st.fixed_dictionaries({k: _mostly(v, junk, 12)
                               for k, v in required.items()},
                              optional={k: _mostly(v, junk, 12)
                                        for k, v in optional.items()}),
        st.fixed_dictionaries({}, optional={**required, **optional}), 8)


positive = _mostly(st.floats(0.01, 10.0), numbers)
rules = st.one_of(
    _obj({"kind": st.just("affine"), "slope": positive, "offset": positive}),
    _obj({"kind": st.just("factorial"), "shift": st.integers(-1, 200)}),
    _obj({"kind": st.just("explicit"),
          "values": st.lists(positive, max_size=4)}),
    junk)
shapes = st.one_of(
    _obj({"kind": st.just("interval"), "a": _mostly(st.floats(-4.0, 0.0),
                                                     numbers),
          "b": _mostly(st.floats(0.01, 4.0), numbers)}),
    _obj({"kind": st.just("disk"), "center": st.one_of(
        numbers, st.lists(numbers, min_size=2, max_size=2)),
          "radius": positive}, log_radius=numbers),
    _obj({"kind": st.just("arc"), "theta1": _mostly(st.floats(-3.0, 0.0),
                                                     numbers),
          "theta2": _mostly(st.floats(0.01, 3.0), numbers)}),
    junk)
cantor_specs = _obj({"a0": numbers, "b0": numbers, "c_rule": rules,
                     "N": st.integers(-1, 40)},
                    placement=st.sampled_from(["bisect", "x"]))
disk_specs = _obj({"alpha": _mostly(st.floats(-1.0, 1.0), numbers),
                   "beta": _mostly(st.floats(1.5, 3.0), numbers),
                   "c_rule": rules,
                   "N": st.integers(-1, 40)},
                  l=st.one_of(st.integers(-2, 3), st.just(10 ** 400)),
                  extras=st.integers(-1, 8))
shape_sets = _obj({"shapes": _mostly(st.lists(shapes, min_size=1, max_size=3),
                                     st.just([]), 8)},
                  tail_inv_log_caps=st.lists(numbers, max_size=2))
sets = st.one_of(
    shape_sets,
    _obj({"spec": cantor_specs}, N=st.integers(-1, 12)),
    _obj({"blaschke": disk_specs}, N=st.integers(-1, 12)),
    junk)


def _flags(**options):
    """Optional --flag=value settings, each drawn or left out (a value
    may start with a minus sign)."""
    return st.fixed_dictionaries({}, optional=options).map(
        lambda d: [f"--{k.replace('_', '-')}={v}" for k, v in d.items()])


def _command(head, payload, **options):
    return st.tuples(st.just(head), _flags(**options), payload).map(
        lambda t: (t[0] + t[1], t[2]))


commands = st.one_of(
    _command(["spec-build"], st.none(), a0=texts, b0=texts,
             rule=st.sampled_from(["affine", "factorial", "explicit", "x"]),
             slope=texts, offset=texts, shift=ints, values=texts,
             depth=ints),
    _command(["eval", "--spec", "{f}", "--at", "0.3,0.2"], cantor_specs,
             depth=ints, tol=texts),
    st.tuples(st.sampled_from(["{s8}", "{s3}", "{fact}", "{weak}"]), points,
              _flags(depth=ints, tol=texts, branch=_mostly(
                  st.sampled_from(["product", "d-plus", "h-plus", "fine"]),
                  st.just("x")))).map(
        lambda t: (["eval", "--spec", t[0], f"--at={t[1]}", *t[2]], None)),
    _command(["capacity", "--set", "{f}"], sets),
    st.tuples(points, _mostly(shape_sets, sets)).map(
        lambda t: (["green", "--set", "{f}", "--n", "4",
                    f"--at={t[0]}"], t[1])),
    _command(["sample-e", "--spec", "{s8}"], st.none(), depth=ints,
             samples=st.sampled_from(["1", "4", "0", "x"]),
             leja_n=st.sampled_from(["4", "8", "0", "x"])),
    st.tuples(points, _mostly(st.lists(numbers, min_size=4, max_size=4),
                              st.lists(numbers, min_size=3, max_size=5)),
              _flags(depth=ints, delta=texts,
                     scheme=st.sampled_from(["flat_head", "quadratic",
                                             "x"]))).map(
        lambda t: (["hull-scan", "--spec", "{fact}", "--res", "64",
                    f"--z={t[0]}", "--wrect=" + ",".join(map(repr, t[1])),
                    *t[2]], None)),
    st.tuples(points, disk_specs, _flags(
        depth=ints, sheets=_mostly(st.just("-2,2"),
                                   st.sampled_from(["0,5000", "x",
                                                    f"{HUGE},{HUGE}"])),
        sample_depth=_mostly(st.sampled_from(["1", "2"]), st.just("x")))).map(
        lambda t: (["blaschke", "--spec", "{f}", f"--at={t[0]}",
                    "--samples", "2", "--leja-n", "4", *t[2]], t[1])),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, argv in (
            ("s8", ["--depth", "8"]), ("s3", ["--depth", "3"]),
            ("fact", ["--rule", "factorial", "--depth", "12"]),
            ("weak", ["--slope", "0.05", "--offset", "1", "--depth", "6"])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["spec-build", *argv,
                             "--out", str(root / name)]) == 0
        paths[name] = str(root / name / "spec.json")
    return paths


def _non_finite(name: str, text: str) -> list:
    """The non-finite numbers of an artifact: NaN and Infinity tokens of a
    JSON file, CSV cells that read as nan or inf.  A JSON string (a
    setting recorded in the manifest) is text, not a number."""
    if name.endswith(".json"):
        found = []
        json.loads(text, parse_constant=found.append)
        return found
    cells = (c for line in text.splitlines() for c in line.split(","))
    return [c for c in cells if c.strip().lower().lstrip("+-") in
            ("nan", "inf", "infinity")]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(argv)
    return rc, out.getvalue()


DISK_1E400 = '{"shapes": [{"kind": "disk", "center": 0, "radius": 1e400}]}'
DISK_SLOPE5 = {"alpha": 0.0, "beta": 1.5707963267948966,
               "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0},
               "N": 12}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=commands)
# (z - 1)/z is nan in complex division at these points
@example(case=(["eval", "--spec", "{s8}", "--at=1e308,1e308"], None))
@example(case=(["eval", "--spec", "{s8}", "--at=1e308,1e308",
                "--branch", "d-plus"], None))
@example(case=(["eval", "--spec", "{s3}", "--at=-1e308,-1e308"], None))
@example(case=(["eval", "--spec", "{s8}", "--at=1.7e308,1.7e308"], None))
@example(case=(["eval", "--spec", "{s8}", "--at", "1,0"], None))
# non-finite or overflowing shape parameters
@example(case=(["capacity", "--set", "{f}"], DISK_1E400))
@example(case=(["green", "--set", "{f}", "--at", "3,0", "--n", "4"],
               DISK_1E400))
@example(case=(["capacity", "--set", "{f}"], '{"shapes": [{"kind": "disk", '
                                             '"center": 0, "log_radius": '
                                             '1e400}]}'))
@example(case=(["capacity", "--set", "{f}"], '{"shapes": [{"kind": '
                                             '"interval", "a": 0, '
                                             '"b": 1e400}]}'))
@example(case=(["capacity", "--set", "{f}"], '{"shapes": [{"kind": "disk", '
                                             '"center": 1e400, '
                                             '"radius": 1}]}'))
@example(case=(["capacity", "--set", "{f}"], {"shapes": [
    {"kind": "interval", "a": -1e308, "b": 1e308}]}))
@example(case=(["green", "--set", "{f}", "--at", "3,0", "--n", "4"],
               {"shapes": [{"kind": "interval", "a": -1e308, "b": 1e308}]}))
# malformed JSON structure
@example(case=(["capacity", "--set", "{f}"], {"shapes": [1]}))
@example(case=(["capacity", "--set", "{f}"],
               {"shapes": [{"kind": "interval", "b": 1.0}]}))
@example(case=(["capacity", "--set", "{f}"], {"shapes": 3}))
@example(case=(["capacity", "--set", "{f}"], {"shapes": [
    {"kind": "disk", "center": "x", "radius": 1.0}]}))
@example(case=(["eval", "--spec", "{f}", "--at", "2,0"], {
    "a0": "0", "b0": "1", "N": "x",
    "c_rule": {"kind": "affine", "slope": "5", "offset": "0"}}))
@example(case=(["eval", "--spec", "{f}", "--at", "2,0"],
               {"a0": "0", "b0": "1", "N": 8, "c_rule": 5}))
@example(case=(["eval", "--config", "{f}", "--spec", "{s8}", "--at", "2,0"],
               [1, 2]))
# refusals that named the wrong field or none
@example(case=(["hull-scan", "--spec", "{fact}", "--z", "2,0",
                "--wrect=-1,1,-1,1", "--res", "64", "--depth", "0"], None))
@example(case=(["spec-build", "--slope", "1e-300", "--offset", "0",
                "--depth", "5"], None))
@example(case=(["spec-build", "--slope=2.225073858507e-311", "--depth=0"],
               None))
@example(case=(["spec-build", "--rule", "explicit", "--values", "1,2",
                "--depth", "5"], None))
@example(case=(["blaschke", "--spec", "{f}", "--sample-depth", "1",
                "--samples", "1"], {"alpha": 0, "beta": 0.5, "N": 12,
                                    "c_rule": {"kind": "factorial",
                                               "shift": 2}}))
# a JSON null for a setting with a default reached the command (exit 2)
@example(case=(["spec-build", "--config", "{f}"], {"slope": None}))
@example(case=(["spec-build", "--config", "{f}"], {"depth": None}))
@example(case=(["eval", "--spec", "{s8}", "--at", "2,0", "--config", "{f}"],
               {"tol": None}))
@example(case=(["hull-scan", "--spec", "{fact}", "--z", "2,0",
                "--wrect=-1,1,-1,1", "--config", "{f}"], {"res": None}))
@example(case=(["sample-e", "--spec", "{s8}", "--depth", "1", "--config",
                "{f}"], {"samples": None}))
# integers past the double range ended in exit 2: a factorial shift and
# sheet indices
@example(case=(["spec-build", "--rule", "factorial", "--shift", HUGE,
                "--depth", "1"], None))
@example(case=(["blaschke", "--spec", "{f}", "--at", "0.3,0.2",
                f"--sheets={HUGE},{HUGE}"], DISK_SLOPE5))
# non-finite artifacts: an infinite tail 1e-10 from extra 1's pole, and
# a sheet spacing 2 pi i B that overflows while sheet 0 is finite
@example(case=(["blaschke", "--spec", "{f}", "--depth", "0",
                "--at=-1.414213562273095,-1.4142135623730951"],
               {**DISK_SLOPE5, "extras": 3}))
@example(case=(["blaschke", "--spec", "{f}", "--at=1.9988,0",
                "--sheets=0,0"], {**DISK_SLOPE5, "N": 4, "l": 1023}))
def test_every_command_exits_zero_or_one_with_a_field(files, case):
    argv, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = dict(files, f=os.path.join(tmp, "input.json"))
        if payload is not None:
            with open(paths["f"], "w") as fh:
                fh.write(payload if isinstance(payload, str)
                         else json.dumps(payload))
        out = os.path.join(tmp, "out")
        rc, stdout = _run([a.format(**paths) for a in argv] +
                          ["--out", out])
        assert rc in (0, 1), stdout
        if rc == 1:
            line = stdout.strip().splitlines()[-1]
            assert json.loads(line).get("field"), line
            return
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as fh:
                text = fh.read()
            assert not _non_finite(name, text), (name, text[:400])

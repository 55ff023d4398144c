import json

import pytest

from jacarith import curverep, jacobian
from jacarith.hyperelliptic import CurveBundle, load_bundle, save_bundle
from jacarith.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    rows = [json.loads(line) for line in out.out.splitlines() if line.startswith("{")]
    return code, rows, out.err


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--genus", "1", "--prime", "1009", "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["gen", "--genus", "1", "--prime", "1009", "--seed", "7",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_composite(capsys):
    code, _, err = _run(capsys, "gen", "--genus", "1", "--prime", "4",
                        "--out", "/tmp/never.json")
    assert code == 2
    assert "prime" in err or "error" in err


def test_gen_b0_tiny_prime_surfaces_point_shortage(tmp_path, capsys):
    code, _, err = _run(capsys, "gen", "--genus", "2", "--prime", "11",
                        "--rep", "b0", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "points" in err


def test_fixture_suite_passes(capsys):
    code, rows, _ = _run(capsys, "verify", "--suite", "fixture")
    assert code == 0
    assert all(r["pass"] for r in rows)
    assert len(rows) >= 3


def test_axioms_suite_small_run(tmp_path, capsys):
    bundle = tmp_path / "c.json"
    assert main(["gen", "--genus", "1", "--prime", "1009", "--seed", "5",
                 "--out", str(bundle)]) == 0
    capsys.readouterr()
    code, rows, _ = _run(capsys, "verify", "--bundle", str(bundle),
                         "--suite", "axioms", "--trials", "4", "--seed", "3")
    assert code == 0
    names = {r["case"] for r in rows}
    assert {"identity", "inverse", "commutativity", "associativity"} <= names
    assert all(r["seed"] == "3/axioms" for r in rows)


def test_membership_suite_small_run(tmp_path, capsys):
    bundle = tmp_path / "c.json"
    main(["gen", "--genus", "1", "--prime", "1009", "--seed", "5",
          "--out", str(bundle)])
    capsys.readouterr()
    code, rows, _ = _run(capsys, "verify", "--bundle", str(bundle),
                         "--suite", "membership", "--trials", "4", "--seed", "1")
    assert code == 0
    names = {r["case"] for r in rows}
    assert {"genuine-spaces-accepted", "perturbed-spaces-rejected"} <= names


def test_membership_suite_over_f2(tmp_path, capsys):
    # over F_2, h = 1 enters V's generating set through A - h*B
    bundle = tmp_path / "c2.json"
    assert main(["gen", "--genus", "2", "--prime", "2", "--out", str(bundle)]) == 0
    capsys.readouterr()
    code, rows, _ = _run(capsys, "verify", "--bundle", str(bundle),
                         "--suite", "membership", "--trials", "4", "--seed", "1")
    assert code == 0
    assert {r["case"] for r in rows} >= {"genuine-spaces-accepted", "perturbed-spaces-rejected"}
    # the count is of every Las Vegas call, not of deflations alone: the two
    # stored deflations, then the walk's two flips (d -> 2d -> d) per point
    retries, = (r for r in rows if r["case"] == "las-vegas-retries")
    assert retries["details"]["las_vegas_calls"] == 2 + 2 * 4


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "igs-stats", "--trials", "0"),
    ("verify", "--suite", "oracle", "--trials", "-3"),
    ("scale", "--genus-list", "2", "--trials", "0"),
    ("scale", "--genus-list", "2", "--trials", "-1")],
    ids=["verify-0", "verify-negative", "scale-0", "scale-negative"])
def test_trial_count_below_one_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --trials: must be at least 1" in err
    assert "Traceback" not in err


def test_resaved_b0_bundle_stays_b0(tmp_path, capsys):
    path, copy = tmp_path / "b0.json", tmp_path / "copy.json"
    assert main(["gen", "--genus", "1", "--prime", "1009", "--seed", "2",
                 "--rep", "b0", "--out", str(path)]) == 0
    capsys.readouterr()
    bundle = load_bundle(str(path))
    save_bundle(bundle, str(copy))
    back = load_bundle(str(copy))
    assert back.rep_tag == "b0"
    assert back.rep_b0.points == bundle.rep_b0.points
    assert copy.read_bytes() == path.read_bytes()


def test_verify_without_bundle_errors(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "axioms")
    assert code == 2


def test_scale_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "scale.csv"
    code, rows, err = _run(capsys, "scale", "--genus-list", "2,3",
                           "--trials", "2", "--seed", "1",
                           "--op", "flip", "--out-csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "genus,op,median_ns,trials"
    assert len(lines) == 3
    slope_rows = [r for r in rows if r["case"] == "loglog-slope"]
    assert len(slope_rows) == 1 and isinstance(slope_rows[0]["details"]["slope"], float)


def test_scale_single_genus_slope_na(tmp_path, capsys):
    code, rows, _ = _run(capsys, "scale", "--genus-list", "2",
                         "--trials", "2", "--seed", "1", "--op", "equal")
    assert code == 0
    slope_rows = [r for r in rows if r["case"] == "loglog-slope"]
    assert slope_rows[0]["details"]["slope"] == "n/a"


@pytest.mark.parametrize("op", ["add", "negate"])
def test_scale_times_add_and_negate(capsys, op):
    code, rows, _ = _run(capsys, "scale", "--genus-list", "2",
                         "--trials", "2", "--seed", "1", "--op", op)
    assert code == 0
    timed = [r for r in rows if r["case"] == "g=2"]
    assert len(timed) == 1 and timed[0]["details"]["op"] == op
    assert timed[0]["details"]["median_ns"] > 0


@pytest.mark.parametrize("genus_list", ["", ","], ids=["empty", "comma"])
def test_scale_empty_genus_list_rejected(capsys, genus_list):
    code, rows, err = _run(capsys, "scale", "--genus-list", genus_list, "--trials", "1")
    assert code == 2
    assert rows == []
    assert "error: --genus-list names no genus" in err and "Traceback" not in err


def test_scale_repeated_genus_rejected(capsys):
    # a repeated genus left the log-log fit with no spread in log g
    code, rows, err = _run(capsys, "scale", "--genus-list", "5,5", "--trials", "1")
    assert code == 2
    assert rows == []
    assert "error: --genus-list repeats a genus" in err and "Traceback" not in err


def test_scale_times_scalar_mul(capsys, monkeypatch):
    scalars = []
    scalar_mul = jacobian.scalar_mul

    def spy(model, n, x, rng):
        scalars.append(n)
        return scalar_mul(model, n, x, rng)

    monkeypatch.setattr(jacobian, "scalar_mul", spy)
    code, rows, _ = _run(capsys, "scale", "--op", "scalar-mul", "--genus-list", "2",
                         "--trials", "1", "--seed", "1")
    assert code == 0
    timed = [r for r in rows if r["case"] == "g=2"]
    assert len(timed) == 1 and timed[0]["details"]["op"] == "scalar-mul"
    assert timed[0]["details"]["median_ns"] > 0
    # one call, with a fixed scalar of bit length 4 and two bits set
    assert len(scalars) == 1
    assert scalars[0].bit_length() == 4 and scalars[0].bit_count() == 2


def test_b0_suite_through_cli(tmp_path, capsys):
    bundle = tmp_path / "b0.json"
    main(["gen", "--genus", "1", "--prime", "1009", "--seed", "2",
          "--rep", "b0", "--out", str(bundle)])
    capsys.readouterr()
    code, rows, _ = _run(capsys, "verify", "--bundle", str(bundle),
                         "--suite", "oracle", "--trials", "2", "--seed", "4",
                         "--rep", "b0")
    assert code == 0
    assert all(r["pass"] for r in rows)


def test_verify_runs_the_form_the_bundle_names(tmp_path, capsys, monkeypatch):
    bundle = tmp_path / "b0.json"
    assert main(["gen", "--genus", "1", "--prime", "1009", "--seed", "2",
                 "--rep", "b0", "--out", str(bundle)]) == 0
    capsys.readouterr()
    tags = []
    large_model = CurveBundle.large_model

    def spy(self, rng, tag="a", **kwargs):
        tags.append(tag)
        return large_model(self, rng, tag, **kwargs)

    monkeypatch.setattr(CurveBundle, "large_model", spy)
    args = ["verify", "--bundle", str(bundle), "--suite", "oracle", "--trials", "2",
            "--seed", "4"]
    code, rows, _ = _run(capsys, *args)
    assert code == 0 and all(r["pass"] for r in rows)
    assert tags == ["b0"]
    # an explicit --rep still wins over the stored tag
    code, _, _ = _run(capsys, *args, "--rep", "a")
    assert code == 0 and tags == ["b0", "a"]


def test_off_curve_point_is_refused_at_load(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    assert main(["gen", "--genus", "1", "--prime", "1009", "--seed", "7",
                 "--rep", "b0", "--out", str(good)]) == 0
    capsys.readouterr()
    data = json.loads(good.read_text())
    x, y = data["points"][0]
    data["points"][0] = [x, next(t for t in range(1009) if t * t % 1009 != y * y % 1009)]
    bad.write_text(json.dumps(data))
    code, rows, err = _run(capsys, "verify", "--bundle", str(bad),
                           "--suite", "oracle", "--trials", "2", "--seed", "1",
                           "--rep", "b0")
    assert code == 2
    assert rows == []
    assert "not on the curve" in err and "Traceback" not in err


def test_engine_abort_is_a_failed_report_not_a_traceback(tmp_path, capsys, monkeypatch):
    bundle = tmp_path / "c.json"
    assert main(["gen", "--genus", "2", "--prime", "1009", "--seed", "7",
                 "--out", str(bundle)]) == 0
    capsys.readouterr()
    # a division that returns all of V breaks addflip_small's degree law at
    # its middle division, the own-section division of s*W_y (flips divide
    # s*V and pass through)
    divide = curverep.divide_own
    monkeypatch.setattr(curverep, "divide_own", lambda rep, w, blocks: (
        divide(rep, w, blocks) if w == rep.full_v() else rep.full_v()))
    code, rows, err = _run(capsys, "verify", "--bundle", str(bundle),
                           "--suite", "oracle", "--trials", "2", "--seed", "1")
    assert code == 1
    assert "Traceback" not in err
    assert [r["case"] for r in rows] == ["aborted"]
    assert rows[0]["pass"] is False and rows[0]["suite"] == "oracle"
    assert rows[0]["details"]["error"] == "DegreeLawViolation"

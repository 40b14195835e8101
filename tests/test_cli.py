"""Command-line behavior: parsing, exit codes, deterministic output files."""

import json

import pytest

from wnl.cli import RunConfig, build_parser, main, parse_phase
from wnl.errors import DomainError
from wnl.specfun import girard_value
from wnl.stationary import fitted_calibration, stationary_comparison


class TestParsePhase:
    def test_named_phases(self):
        assert parse_phase("sine").label == "sine"
        assert parse_phase("abs").label == "abs"
        assert parse_phase("linear:4").label == "linear[4]"
        assert parse_phase("blaschke:0.5").label == "blaschke[0.5]"
        assert parse_phase("blaschke:0.3,0.7").label == "blaschke[0.3,0.7]"

    def test_whitespace_tolerated(self):
        assert parse_phase(" blaschke: 0.3 , 0.7 ").label == "blaschke[0.3,0.7]"

    def test_complex_zero_needs_opt_in(self):
        with pytest.raises(DomainError, match="exploration-only"):
            parse_phase("blaschke:0.4+0.3j")
        with pytest.warns(UserWarning, match="no.*theorem"):
            phase = parse_phase("blaschke:0.4+0.3j", allow_complex=True)
        assert not phase.odd

    @pytest.mark.parametrize(
        "bad", ["fourier", "linear:x", "linear:1.5", "blaschke:", "blaschke:zzz"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(DomainError):
            parse_phase(bad)


class TestRunConfig:
    def test_tol_window(self):
        RunConfig(phase_spec="sine", param_list=(5.0,), quad_tol=1e-10)
        for bad in (1e-15, 1e-3, 0.5):
            with pytest.raises(DomainError):
                RunConfig(phase_spec="sine", param_list=(5.0,), quad_tol=bad)

    def test_params_positive(self):
        with pytest.raises(DomainError):
            RunConfig(phase_spec="sine", param_list=(5.0, -1.0))

    def test_format_checked(self):
        with pytest.raises(DomainError):
            RunConfig(phase_spec="sine", param_list=(5.0,), fmt="yaml")


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bessel", "--params", "100", "--phase", "blaschke:0.5"],
        ["validate", "--phase", "sine", "--grid-pow", "3"],
        ["validate", "--phase", "sine", "--epsilon", "9"],
        ["stationary-compare", "--phase", "sine", "--params", "150", "--tol", "1e-8"],
        ["stationary-compare", "--phase", "sine", "--params", "150", "--epsilon", "0.2"],
        ["explore-blaschke", "--phase", "blaschke:0.5", "--params", "20", "--epsilon", "0.2"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_subcommands_reject_flags_they_never_read(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("params", [None, "", " , "], ids=["missing", "empty", "commas"])
@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--phase", "sine"],
        ["converge", "--phase", "abs"],
        ["stationary-compare", "--phase", "sine"],
        ["bessel"],
        ["explore-blaschke", "--phase", "blaschke:0.5"],
    ],
    ids=["converge", "converge-abs", "stationary-compare", "bessel", "explore-blaschke"],
)
def test_params_missing_or_empty_is_a_clean_error(argv, params, capsys):
    """A missing --params is a usage error (2); an empty ladder is a DomainError (1)."""
    if params is None:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    else:
        assert main(argv + ["--params", params]) == 1
        assert capsys.readouterr().err.startswith("error: --params")
    assert "Traceback" not in capsys.readouterr().err


def test_validate_exit_codes(capsys):
    assert main(["validate", "--phase", "sine"]) == 0
    assert main(["validate", "--phase", "linear:2"]) == 1
    out = capsys.readouterr().out
    assert "ok" in out and "FAILED" in out


def test_unknown_phase_is_reported(capsys):
    assert main(["validate", "--phase", "cubic"]) == 1
    assert "error:" in capsys.readouterr().err


def test_converge_writes_deterministic_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    args = ["converge", "--phase", "sine", "--params", "50,100", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    text = first.decode()
    assert text.splitlines()[1] == (
        "param,scaled_norm,abs_err,external_sum,periphery_sum,central_sum"
    )
    assert "limit L = " in capsys.readouterr().out


def test_converge_json(tmp_path):
    out = tmp_path / "study.json"
    code = main(
        ["converge", "--phase", "sine", "--params", "50,100",
         "--out", str(out), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["phase_label"] == "-(sine)"
    assert len(payload["rows"]) == 2


def test_converge_json_on_stdout_matches_file(tmp_path, capsys):
    args = ["converge", "--phase", "sine", "--params", "50,100", "--format", "json"]
    assert main(args) == 0
    printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    out = tmp_path / "study.json"
    assert main(args + ["--out", str(out)]) == 0
    assert printed == json.loads(out.read_text())


def test_converge_abs_routes_to_log_growth(tmp_path, capsys):
    out = tmp_path / "abs.csv"
    code = main(["converge", "--phase", "abs", "--params", "64,256", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert "mode=log-growth" in lines[0]
    assert lines[1] == "param,norm,norm_over_log,abs_err"
    assert "2/pi" in capsys.readouterr().out


def test_converge_rejects_fractional_blaschke_ladder(capsys):
    assert main(["converge", "--phase", "blaschke:0.5", "--params", "50.5,60"]) == 1
    assert "winding" in capsys.readouterr().err


def test_stationary_compare(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        ["stationary-compare", "--phase", "sine", "--params", "150", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "nu,exact,approx,abs_err,remainder_bound"
    assert len(lines) > 100
    assert "fitted minimal C" in capsys.readouterr().out


@pytest.mark.parametrize(
    ("spec", "x", "empty"), [("sine", 150.0, False), ("blaschke:0.9", 2.0, True)]
)
def test_stationary_compare_writes_library_table(tmp_path, capsys, spec, x, empty):
    """The CLI files are the library's csv_text and payload, empty table or not."""
    phase = parse_phase(spec)
    table = stationary_comparison(phase, x)
    assert (not table.rows) == empty
    out = tmp_path / "table.csv"
    argv = ["stationary-compare", "--phase", spec, "--params", repr(x)]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == table.csv_text().encode()
    js = tmp_path / "table.json"
    assert main(argv + ["--format", "json", "--out", str(js)]) == 0
    payload = {**table.payload(), "fitted_c": fitted_calibration(phase, table)}
    assert json.loads(js.read_text()) == payload
    said = capsys.readouterr().out
    assert ("central window holds no integer index" in said) == empty


def test_stationary_compare_needs_single_param(capsys):
    assert main(["stationary-compare", "--phase", "sine", "--params", "50,100"]) == 1


def test_bessel_cross_check(capsys):
    assert main(["bessel", "--params", "1,5,20"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("cross-check"))
    diff = float(line.rsplit("= ", 1)[1].rstrip(")"))
    assert diff < 1e-8


def test_explore_blaschke_real_zero(tmp_path, capsys):
    out = tmp_path / "explore.csv"
    code = main(
        ["explore-blaschke", "--phase", "blaschke:0.5", "--params", "20,40",
         "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "exploratory" not in text
    assert "girard closed form" in capsys.readouterr().out


def test_explore_blaschke_girard_reads_the_exact_zero(capsys):
    """The closed form is evaluated at the zero given, not at a rounded label."""
    assert main(["explore-blaschke", "--phase", "blaschke:0.123456789", "--params", "20"]) == 0
    line = next(
        l for l in capsys.readouterr().out.splitlines() if l.startswith("girard closed form")
    )
    want = girard_value(0.123456789).value
    assert line == f"girard closed form at alpha=0.123456789: {want!r}"


def test_explore_blaschke_complex_zero(tmp_path):
    out = tmp_path / "explore.csv"
    with pytest.warns(UserWarning):
        code = main(
            ["explore-blaschke", "--phase", "blaschke:0.4+0.3j",
             "--params", "20,40", "--out", str(out)]
        )
    assert code == 0
    assert "exploratory: no theorem applies" in out.read_text().splitlines()[0]


def test_explore_blaschke_rejects_other_phases():
    assert main(["explore-blaschke", "--phase", "sine", "--params", "20"]) == 1


_TABLE_RUNS = {
    "converge-sine": ["converge", "--phase", "sine", "--params", "50,100"],
    "converge-abs": ["converge", "--phase", "abs", "--params", "64,256"],
    "stationary-compare": ["stationary-compare", "--phase", "sine", "--params", "150"],
    "bessel": ["bessel", "--params", "10.5,100"],
    "explore-blaschke": ["explore-blaschke", "--phase", "blaschke:0.5", "--params", "20,40"],
}


@pytest.mark.parametrize("name", list(_TABLE_RUNS))
def test_csv_and_json_carry_the_same_table(name, tmp_path, capsys):
    """The CSV columns are the keys of every JSON row, and each cell reads back exactly."""
    argv = _TABLE_RUNS[name]
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(csv_path)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    header, column_line, *lines = csv_path.read_text().splitlines()
    assert header.startswith("# ")
    columns = column_line.split(",")
    rows = json.loads(json_path.read_text())["rows"]
    assert len(rows) == len(lines) > 0
    for line, row in zip(lines, rows):
        assert set(row) == set(columns)
        cells = line.split(",")
        assert [float(c) for c in cells] == [row[c] for c in columns]

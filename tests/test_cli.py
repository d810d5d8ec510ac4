"""CLI verbs, exit codes, and output determinism."""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdesign
from rbdesign import gamma_design, read_design, validate, write_design
from rbdesign.cli import run
from rbdesign.search import random_resolvable


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def run_module(*argv, module="rbdesign"):
    """`python -m MODULE ARGV` (`python ARGV` without a module) in a fresh
    process importing this package."""
    src = str(Path(rbdesign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *(["-m", module] if module else []), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_matches_run():
    expected = invoke("catalog")[1]
    for module in ("rbdesign", "rbdesign.cli"):
        proc = run_module("catalog", module=module)
        assert proc.returncode == 0
        assert proc.stdout == expected


#: verbs that need no numpy, each run in turn in one fresh process
COLD_VERBS = [["catalog"], ["generate", "--family", "gamma", "--r", "3"], ["dual", "delta-rc-3"],
              ["export", "sylvester-edges"], ["--help"]]
HEAVY = ["numpy", "rbdesign.efficiency", "rbdesign.search", "rbdesign.isomorphism"]
COLD_SCRIPT = f"""
import contextlib, io, sys
from rbdesign import cli
for argv in {COLD_VERBS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.run(argv, out=io.StringIO())
        except SystemExit as exc:  # --help
            code = exc.code
    print(code, [m for m in {HEAVY!r} if m in sys.modules])
"""


def test_numpy_free_verbs_load_no_heavy_layer():
    proc = run_module("-c", COLD_SCRIPT, module=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 []"] * len(COLD_VERBS)


SHORT = ("--restarts", "1", "--moves", "1", "--t0", "0.1", "--tmin", "0.05")


@pytest.mark.parametrize("argv, code", [
    (("search", "--r", "4", "--restarts", "0"), 2),
    (("search", "--r", "4", "--cooling", "1.5"), 2),
    (("search", "--r", "4", "--v", "35"), 2),
    (("search", "--r", "4", "--k", "0"), 2),
    (("search", "--r", "4", "--tmin", "-1"), 2),
    (("search", "--r", "4", "--seed", "-1"), 2),
    (("search", "--r", "1", *SHORT), 3),
    (("evaluate", "{dir}"), 2),
    (("evaluate", "{latin1}"), 2),
    (("evaluate", "gamma-rc-2", "--precision", "-2"), 2),
    (("generate", "--family", "gamma", "--r", "0"), 4),
    (("generate", "--family", "gamma", "--r", "2", "--out", "{dir}/missing/x.txt"), 2),
    (("search", "--r", "2", "--restarts", "1", "--budget", "nan"), 2),
    (("search", "--r", "2", "--restarts", "1", "--budget", "-1"), 2),
    (("search", "--r", "2", "--restarts", "1", "--t0", "-1"), 2),
    (("evaluate", "gamma-rc-2", "--precision", "100000000"), 2),
    (("evaluate", "{wide}"), 4),
    (("evaluate", "{one}"), 4),
    (("search", "--v", "6", "--k", "1", "--r", "3"), 3),
    (("search", "--r", "2", "--v", "600000", "--k", "6"), 4),
    (("search", "--r", "50000000"), 4),
    # schedules over cli.MAX_PROPOSALS proposals, with and without a budget
    (("search", "--r", "2", "--restarts", "1", "--moves", "100000000", "--budget", "1"), 2),
    (("search", "--r", "2", "--restarts", "100000000", "--budget", "1", "--moves", "1",
      "--t0", "0.1", "--tmin", "0.09"), 2),
    (("search", "--r", "2", "--restarts", "1000000000"), 2),
    (("search", "--r", "2", "--moves", "1000000000"), 2),
    (("search", "--r", "2", "--tmin", "1e-300", "--cooling", "0.999999"), 2),
])
def test_error_paths_exit_without_traceback(tmp_path, argv, code):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# caf\xe9\n1 2 3 4 5 6\n".encode("latin-1"))
    wide = tmp_path / "wide.txt"  # one block of 200 varieties: over MAX_VARIETIES
    wide.write_text(" ".join(map(str, range(1, 201))) + "\n")
    one = tmp_path / "one.txt"  # a single variety: no contrast to evaluate
    one.write_text("1\n")
    argv = [a.format(dir=tmp_path, latin1=latin1, wide=wide, one=one) for a in argv]
    proc = run_module(*argv)
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_generate_matches_library():
    code, out = invoke("generate", "--family", "gamma", "--variant", "RC", "--r", "8")
    assert code == 0
    assert out == write_design(gamma_design(8, "RC"))
    assert validate(read_design(out)) == []


def test_generate_to_file(tmp_path):
    target = tmp_path / "d.txt"
    code, out = invoke("generate", "--family", "delta", "--variant", "C", "--r", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert validate(read_design(target.read_text())) == []


def test_evaluate_reference_design():
    code, out = invoke("evaluate", "theta-8")
    assert code == 0
    assert "A-exact" in out and "7007/8196" in out
    assert "0.8549" in out
    assert "factor x16" in out and "13/16" in out
    assert "factor x10" in out and "7/8" in out
    assert "factor x9" in out and "11/12" in out


def _charpoly_shapes(monkeypatch, name):
    """The shape of every matrix whose characteristic polynomial `evaluate`
    computes for a catalog design."""
    from rbdesign import efficiency

    calls = []
    charpoly = efficiency._charpoly
    monkeypatch.setattr(efficiency, "_charpoly",
                        lambda c, **kw: calls.append(c.shape) or charpoly(c, **kw))
    assert invoke("evaluate", name)[0] == 0
    return calls


def test_evaluate_computes_one_characteristic_polynomial(monkeypatch):
    # r = 5: the 30 blocks modulo the 5 replicate indicators leave 25 < 35
    assert _charpoly_shapes(monkeypatch, "gamma-rc-5") == [(25, 25)]


def test_evaluate_eight_replicates_uses_the_variety_side(monkeypatch):
    # r = 8: 48 blocks modulo 8 indicators leave 40, so the variety side
    # modulo 1_v (35 x 35) is the smaller
    assert _charpoly_shapes(monkeypatch, "theta-8") == [(35, 35)]


def test_evaluate_kv_format_and_precision():
    code, out = invoke("evaluate", "gamma-5", "--format", "kv", "--precision", "7")
    assert code == 0
    assert "A-decimal: 0.8382815" in out


def test_evaluate_file_argument(tmp_path):
    path = tmp_path / "lattice.txt"
    path.write_text(write_design(gamma_design(2, "RC")))
    code, out = invoke("evaluate", str(path))
    assert code == 0
    assert "7/9" in out


def test_evaluate_unknown_name_exit_parse():
    code, _ = invoke("evaluate", "no-such-design")
    assert code == 2


def test_evaluate_malformed_file_exit_parse(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 zebra\n")
    code, _ = invoke("evaluate", str(path))
    assert code == 2


def test_evaluate_disconnected_exit(tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text(write_design(gamma_design(1)))
    code, out = invoke("evaluate", str(path))
    assert code == 3
    assert "connected" in out


def test_robustness_five_replicates():
    code, out = invoke("robustness", "gamma-rc-5")
    assert code == 0
    assert "worst" in out and "0.8341" in out
    assert "average" in out and "0.8364" in out


def test_robustness_csv_format():
    code, out = invoke("robustness", "gamma-rc-4", "--format", "csv")
    assert code == 0
    header, values = out.strip().splitlines()
    assert header.split(",")[0] == "design"
    assert len(header.split(",")) == len(values.split(","))
    assert "0.8211" in values  # the published average


def test_robustness_shape_error_exit():
    code, _ = invoke("robustness", "gamma-rc-2")
    assert code == 4


def test_isomorphic_exit_codes():
    code, out = invoke("isomorphic", "gamma-r-7", "gamma-c-7")
    assert code == 0 and "isomorphic" in out
    code, out = invoke("isomorphic", "gamma-r-4", "gamma-c-4")
    assert code == 1 and "not isomorphic" in out
    code, out = invoke("isomorphic", "gamma-rc-2", "gamma-rc-3")
    assert code == 1 and "shapes differ" in out


def test_autorder():
    code, out = invoke("autorder", "theta-8")
    assert code == 0 and out.strip() == "1"
    code, out = invoke("autorder", "delta-rc-8")
    assert code == 0 and out.strip() == "144"


def test_sylvester_check_with_witness():
    code, out = invoke("sylvester-check", "gamma-rc-8", "--witness")
    assert code == 0
    assert "Sylvester design" in out
    witness_line = next(line for line in out.splitlines() if line.startswith("witness:"))
    perm = [int(x) for x in witness_line.split(":")[1].split()]
    assert sorted(perm) == list(range(1, 37))


def test_sylvester_check_wrong_shape_exit():
    code, _ = invoke("sylvester-check", "gamma-rc-7")
    assert code == 4


def test_dual_of_semi_latin_design_is_grouped():
    code, out = invoke("dual", "delta-6")
    assert code == 0
    assert "# semi-latin: yes" in out
    assert "# resolvable: yes" in out
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    parsed = read_design(body + "\n")
    assert validate(parsed) == []


def test_dual_flat_output_when_not_resolvable():
    code, out = invoke("dual", "theta-4")
    assert code == 0
    assert "# resolvable: no" in out
    blocks = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert len(blocks) == 36


#: sha256 over "NAME CODE\nSTDOUT" of `rbdesign dual NAME` for the 50 catalog
#: names in catalog order: which duals resolve, and into which classes
DUAL_CATALOG_SHA256 = "9b778b399808113f889e70e8327dbb585d990e6e5aabddf9a683892f07f1d56a"


def test_dual_of_every_catalog_design_is_pinned():
    digest = hashlib.sha256()
    for entry in rbdesign.catalog():
        code, out = invoke("dual", entry.name)
        digest.update(f"{entry.name} {code}\n{out}".encode())
    assert len(rbdesign.catalog()) == 50
    assert digest.hexdigest() == DUAL_CATALOG_SHA256


def test_catalog_listing():
    code, out = invoke("catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("theta-8") for line in lines)
    assert any(line.startswith("gamma-rc-8") for line in lines)
    assert len(lines) > 40


def test_export_sylvester_edges():
    code, out = invoke("export", "sylvester-edges")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 90
    assert all(len(line.split()) == 2 for line in lines)


def test_export_concurrence():
    code, out = invoke("export", "concurrence", "gamma-rc-2")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 36 and all(len(r) == 36 for r in rows)
    assert rows[0][0] == "2"


def test_output_determinism():
    first = invoke("evaluate", "delta-rc-4")
    second = invoke("evaluate", "delta-rc-4")
    assert first == second


@st.composite
def _design_files(draw):
    """write_design text of a random resolvable design (v <= 12, k | v,
    r <= 4): intact, with one entry replaced by a value in -1..v+1, or with
    one block dropped."""
    k = draw(st.integers(1, 12))
    v, r = k * draw(st.integers(1, 12 // k)), draw(st.integers(1, 4))
    design = random_resolvable(v, k, r, np.random.default_rng(draw(st.integers(0, 2**16))))
    lines = write_design(design).splitlines()
    blocks = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    fault = draw(st.sampled_from(["none", "entry", "drop"]))
    if fault == "entry":
        i = draw(st.sampled_from(blocks))
        members = lines[i].split()
        members[draw(st.integers(0, k - 1))] = str(draw(st.integers(-1, v + 1)))
        lines[i] = " ".join(members)
    elif fault == "drop":
        del lines[draw(st.sampled_from(blocks))]
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(_design_files())
def test_fuzzed_design_files_end_in_an_exit_code(tmp_path_factory, text):
    # every verb that reads one design ends in a documented exit code, never
    # an exception, and prints the same bytes when run again
    path = tmp_path_factory.getbasetemp() / "fuzzed-design.txt"
    path.write_text(text)
    for verb in ("evaluate", "robustness", "dual", "autorder"):
        code, out = invoke(verb, str(path))
        assert code in range(5), verb
        assert invoke(verb, str(path)) == (code, out), verb


def test_search_verb_deterministic_and_seed_echoed():
    args = ("search", "--r", "3", "--restarts", "1", "--seed", "5",
            "--moves", "30", "--t0", "0.1", "--tmin", "0.02", "--format", "kv")
    code1, out1 = invoke(*args)
    code2, out2 = invoke(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed: 5" in out1


def test_search_echoes_the_config_defaults():
    # without --seed and --restarts, SearchConfig's defaults run and are echoed
    short = ("--moves", "2", "--t0", "0.1", "--tmin", "0.05", "--format", "kv")
    code, out = invoke("search", "--r", "3", *short)
    assert code == 0 and out.startswith("seed: 0\nrestarts: 8\n")
    assert invoke("search", "--r", "3", "--seed", "0", "--restarts", "8", *short) == (code, out)


def test_search_budget_accepts_suffixed_seconds():
    code, out = invoke("search", "--r", "3", "--restarts", "1", "--seed", "2",
                       "--moves", "20", "--t0", "0.05", "--tmin", "0.02",
                       "--budget", "30s", "--format", "kv")
    assert code == 0
    assert "budget-exhausted: no" in out


def test_search_verb_writes_design_and_trace(tmp_path):
    design_file = tmp_path / "best.txt"
    trace_file = tmp_path / "trace.csv"
    code, out = invoke("search", "--r", "3", "--restarts", "1", "--seed", "1",
                       "--moves", "30", "--t0", "0.1", "--tmin", "0.02",
                       "--out", str(design_file), "--trace", str(trace_file))
    assert code == 0
    parsed = read_design(design_file.read_text())
    assert validate(parsed) == []
    assert trace_file.read_text().startswith("restart,stage,temperature")

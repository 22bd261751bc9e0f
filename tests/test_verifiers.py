import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from sullivan import verifiers
from sullivan.cli import main
from sullivan.cohomology import CohomologyEngine, engine_for
from sullivan.library import get_model
from sullivan.model import make_model, quotient_model
from sullivan.verifiers import (
    VerificationReport,
    _is_truncated_polynomial,
    classify_conjecture5,
    odd_cocycle_kernel_dimension,
    scan_conjecture5,
    verify_all,
    verify_corollary4,
    verify_lemma1,
    verify_nilmanifold,
    verify_remark2,
    verify_conjecture5,
    verify_theorem2,
    verify_theorem3,
)


def test_theorem2_5gen():
    r = verify_theorem2(get_model("example-5gen"))
    assert r.passed
    assert r.derived["e"] == 3
    assert r.derived["mu"] == [1, 2, 2, 1]
    assert r.derived["n_k"] == [0, 2, 5, 7]
    assert r.derived["p"] == 2


def test_theorem2_even_sphere_trivial():
    r = verify_theorem2(get_model("sphere:2"))
    assert r.passed and r.derived["e"] == 1


def test_theorem2_cpl_family_e_equals_l():
    for l in range(2, 7):
        r = verify_theorem2(get_model(f"cpl-sphere:{l},1"))
        assert r.passed and r.derived["e"] == l, l


def test_theorem2_not_applicable_on_mixed():
    r = verify_theorem2(get_model("mixed:1"))
    assert r.verdict == "not-applicable"


def test_theorem2_not_applicable_on_non_elliptic():
    m = make_model([("x", 2)])
    r = verify_theorem2(m)
    assert r.verdict == "not-applicable"


def test_lemma1_5gen_duality():
    r = verify_lemma1(get_model("example-5gen"))
    assert r.passed
    # n_k = 7 - N_(3-k) for k = 1, 2
    n_k, N_k = r.derived["n_k"], r.derived["N_k"]
    assert n_k[1] == 7 - N_k[2] and n_k[2] == 7 - N_k[1]
    assert r.derived["condition_a"] and r.derived["condition_b"]


def test_lemma1_odd_sphere_vacuous():
    assert verify_lemma1(get_model("sphere:5")).passed


def test_lemma1_library(homogeneous_library):
    for m in homogeneous_library:
        r = verify_lemma1(m)
        assert r.verdict in ("pass", "not-applicable"), m.name
        assert r.verdict == "pass", m.name  # all library models realize middle k


def test_lemma1_conditions_agree_on_random_corpus(random_corpus):
    # (a) and (b) hold or fail together on every pure corpus member
    for m in random_corpus:
        r = verify_lemma1(m)
        assert r.verdict == "pass", m.name
        assert r.derived["condition_a"] == r.derived["condition_b"], m.name


def test_odd_cocycle_kernel_detects_basis_change():
    # dy1 = dy2 = x^2: y1 - y2 is a cocycle even though no single
    # generator has zero differential
    m = make_model(
        [("x", 2), ("y1", 3), ("y2", 3)],
        {"y1": {(2, 0, 0): Fraction(1)}, "y2": {(2, 0, 0): Fraction(1)}},
    )
    assert odd_cocycle_kernel_dimension(m) == 1
    assert odd_cocycle_kernel_dimension(get_model("example-5gen")) == 0
    assert odd_cocycle_kernel_dimension(get_model("cpl-sphere:2,1")) == 1


def test_theorem3_5gen_not_applicable_but_informative():
    r = verify_theorem3(get_model("example-5gen"))
    assert r.verdict == "not-applicable"
    assert r.derived["mu"] == [1, 2, 2, 1]  # reported anyway
    assert r.derived["odd_cocycle_kernel"] == 0


def test_theorem3_cpl_applicable_and_sharp():
    for l, r_ in [(2, 1), (3, 1), (4, 2)]:
        rep = verify_theorem3(get_model(f"cpl-sphere:{l},{r_}"))
        assert rep.passed
        assert all(v == 2 for v in rep.derived["mu"][1:-1])


def test_theorem3_heisenberg():
    rep = verify_theorem3(get_model("heisenberg"))
    assert rep.passed
    assert rep.derived["mu"] == [1, 2, 2, 1]


def test_theorem3_basis_change_model_applies():
    m = make_model(
        [("x", 2), ("y1", 3), ("y2", 3)],
        {"y1": {(2, 0, 0): Fraction(1)}, "y2": {(2, 0, 0): Fraction(1)}},
    )
    rep = verify_theorem3(m)
    assert rep.verdict in ("pass", "fail")  # applicable
    assert rep.passed


def test_corollary4_5gen_sharp_but_not_applicable():
    r = verify_corollary4(get_model("example-5gen"))
    assert r.verdict == "not-applicable"
    assert r.derived["total_dim_H"] == 6 and r.derived["e0"] == 3
    assert r.derived["sharp"] is True


def test_corollary4_cpl_sharp():
    for l in (2, 3, 4):
        r = verify_corollary4(get_model(f"cpl-sphere:{l},1"))
        assert r.passed and r.derived["sharp"] is True, l


def test_corollary4_random_corpus(random_corpus):
    for m in random_corpus:
        r = verify_corollary4(m)
        if r.verdict == "pass":
            assert r.derived["total_dim_H"] >= 2 * r.derived["e0"]
        assert r.verdict in ("pass", "not-applicable")


def test_remark2_homogeneous_equality():
    r = verify_remark2(get_model("example-5gen"))
    assert r.passed and r.derived["e0"] == r.derived["bound"]


def test_remark2_mixed_models():
    for i in range(1, 6):
        r = verify_remark2(get_model(f"mixed:{i}"))
        assert r.passed, f"mixed:{i}"
        assert r.derived["profile"] == "bounded_below"


def test_remark2_even_sphere():
    r = verify_remark2(get_model("sphere:4"))
    assert r.passed and r.derived["e0"] == 1 and r.derived["bound"] == 1


def test_remark2_strict_bound_mixed5():
    # bounded_below(3) with one even generator: bound 3 > dim V^odd
    r = verify_remark2(get_model("mixed:5"))
    assert r.passed
    assert r.derived["l"] == 3 and r.derived["bound"] == 3 and r.derived["e0"] == 3


def test_nilmanifold_heisenberg():
    r = verify_nilmanifold(get_model("heisenberg"))
    assert r.passed
    assert r.derived["betti"] == [1, 2, 2, 1]
    assert r.derived["total_dim_H"] == 6 == 2 * r.derived["dim_manifold"]
    assert r.derived["e0"] == 3


def test_nilmanifold_nil5():
    r = verify_nilmanifold(get_model("nil5"))
    assert r.passed
    assert r.derived["dim_manifold"] == 5 and r.derived["e0"] == 5
    assert all(b >= 2 for b in r.derived["betti"][1:-1])
    assert r.derived["total_dim_H"] >= 10


def test_nilmanifold_not_applicable_elsewhere():
    assert verify_nilmanifold(get_model("cp:2")).verdict == "not-applicable"


def test_conjecture5_cp_is_truncated_polynomial():
    for n in (2, 3, 4):
        rec = classify_conjecture5(get_model(f"cp:{n}"))
        assert rec.branch == "truncated-polynomial", n


def test_conjecture5_cpl_is_two_dimensional():
    rec = classify_conjecture5(get_model("cpl-sphere:4,2"))
    assert rec.branch == "two-dimensional"


def test_conjecture5_scan_no_counterexamples(homogeneous_library, random_corpus):
    corpus = homogeneous_library + random_corpus[:15]
    records = scan_conjecture5(corpus)
    assert all(r.branch != "counterexample" for r in records)
    ids = [r.model_id for r in records]
    assert ids == sorted(ids)


def test_conjecture5_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify_conjecture5(get_model("mixed:2"))


def test_negative_controls_route_to_not_applicable():
    non_elliptic = make_model([("x", 2)])
    mixed = get_model("mixed:4")
    reports = []
    for checker in (verify_theorem2, verify_lemma1, verify_theorem3):
        reports += [checker(non_elliptic), checker(mixed), checker(mixed)]
    assert all(r.verdict == "not-applicable" for r in reports)
    # every report owns its dicts
    assert len({id(r.witnesses) for r in reports}) == len(reports)
    assert len({id(r.derived) for r in reports}) == len(reports)


def test_readme_library_api_block_runs():
    # the documented example runs against the exported names and prints
    # what its comments say, then one line per checker
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "(1, 0, 1)",
        "1",
        "theorem2 pass",
        "lemma1 pass",
        "theorem3 not-applicable",
        "corollary4 not-applicable",
        "remark2 pass",
        "nilmanifold not-applicable",
        "conjecture5 pass",
    ]


def test_verification_report_defaults_and_repr():
    a, b = VerificationReport("t", "m", "pass"), VerificationReport("t", "m", "pass")
    assert a.witnesses == a.derived == {}
    assert a.witnesses is not b.witnesses and a.derived is not b.derived
    assert repr(VerificationReport("theorem2", "cp:2", "fail", {"A": "x"})) == (
        "VerificationReport(theorem_id='theorem2', model_id='cp:2', verdict='fail', "
        "witnesses={'A': 'x'}, derived={})")


def test_verify_all_structure():
    reports = verify_all(get_model("heisenberg"))
    ids = [r.theorem_id for r in reports]
    assert ids == ["theorem2", "lemma1", "theorem3", "corollary4", "remark2",
                   "nilmanifold", "conjecture5"]
    assert all(r.model_id == "heisenberg" for r in reports)
    assert all(r.verdict == "pass" for r in reports)
    # the model with no generators, and the quotient Lambda W = Q that
    # strips the only generator of an odd sphere
    sphere = get_model("sphere:3")
    for model in (make_model([]), quotient_model(sphere, sphere.generators[0])):
        reports = {r.theorem_id: r for r in verify_all(model)}
        assert list(reports) == ids
        for theorem_id in ("theorem2", "lemma1"):
            derived = reports[theorem_id].derived
            assert reports[theorem_id].verdict == "pass"
            assert derived["e"] == 0 and derived["n_k"] == derived["N_k"] == [0]
        assert reports["theorem2"].derived["e0"] == 0
        assert reports["theorem2"].derived["mu"] == [1]


def test_verify_conjecture5_branches():
    r = verify_conjecture5(get_model("cp:3"))
    assert r.passed and r.derived["branch"] == "truncated-polynomial"
    r = verify_conjecture5(get_model("example-5gen"))
    assert r.passed and r.derived["branch"] == "two-dimensional"
    assert verify_conjecture5(get_model("mixed:1")).verdict == "not-applicable"


def test_verdicts_reproducible_from_serialized_text():
    # pass verdicts depend only on the model text, not hidden state
    from sullivan.parser import parse_model, print_model

    for name in ["example-5gen", "cpl-sphere:3,1", "nil5", "mixed:2"]:
        original = get_model(name)
        replayed = parse_model(print_model(original), name=name)
        first = [(r.theorem_id, r.verdict) for r in verify_all(original)]
        second = [(r.theorem_id, r.verdict) for r in verify_all(replayed)]
        assert first == second, name


# Negative controls: every fail branch of every checker.  Each case feeds
# one checker a quantity that breaks exactly one condition on a model where
# every checker passes (heisenberg: p = 1, e = 3, N = 3, mu = [1, 2, 2, 1];
# example-5gen: p = 2, e = 3, N = 7, n_k = N_k = [0, 2, 5, 7]) and pins the
# whole witness dict.
FAIL_CASES = [
    ("theorem2 A", verify_theorem2, "heisenberg", {"spectrum": (4, (1, 2, 2, 1))},
     {"A": "toomer_of_algebra = 4 != e = 3"}),
    ("theorem2 B zero", verify_theorem2, "heisenberg", {"spectrum": (3, (1, 2, 0, 1))},
     {"B": "spectrum [1, 2, 0, 1] has a gap below e = 3"}),
    # a negative drop must not pass as a nonzero one
    ("theorem2 B negative", verify_theorem2, "heisenberg",
     {"spectrum": (3, (1, 3, -1, 1))},
     {"B": "spectrum [1, 3, -1, 1] has a gap below e = 3"}),
    ("theorem2 B short", verify_theorem2, "heisenberg", {"spectrum": (3, (1, 2, 2))},
     {"B": "spectrum [1, 2, 2] has a gap below e = 3"}),
    ("theorem2 C undefined", verify_theorem2, "heisenberg",
     {"bigraded": {"n_k": (0, 1, None, 3)}},
     {"C": "some H_k vanishes, the ladder is undefined"}),
    ("theorem2 C ladder a start", verify_theorem2, "heisenberg",
     {"bigraded": {"n_k": (0, 2, 3, 4)}}, {"C": "n_1 = 2 != p = 1"}),
    ("theorem2 C ladder a step", verify_theorem2, "heisenberg",
     {"bigraded": {"n_k": (0, 1, 1, 3)}}, {"C": "n_2 = 1 < n_1 + p = 2"}),
    ("theorem2 C ladder b step", verify_theorem2, "heisenberg",
     {"bigraded": {"N_k": (0, 1, 1, 3)}}, {"C": "N_2 = 1 < N_1 + p = 2"}),
    ("theorem2 C ladder b top", verify_theorem2, "heisenberg",
     {"bigraded": {"N_k": (0, 1, 2, 4)}}, {"C": "N_e = 4 != N_(e-1) + p = 3"}),
    ("lemma1 duality", verify_lemma1, "example-5gen",
     {"bigraded": {"n_k": (0, 2, 4, 7)}},
     {"duality k=2": "n_2 = 4 != N - N_(e-2) = 5"}),
    ("lemma1 equivalence", verify_lemma1, "example-5gen",
     {"bigraded": {"n_k": (0, 2, 5, 6)}},
     {"equivalence": "(a) = False but (b) = True"}),
    ("theorem3 k", verify_theorem3, "heisenberg", {"spectrum": (3, (1, 2, 1, 1))},
     {"k=2": "dim H_2 = 1 < 2"}),
    # e0 = 1 < e: mu_2 lies past the end of the spectrum and counts as 0
    ("theorem3 short", verify_theorem3, "heisenberg", {"spectrum": (1, (1, 2))},
     {"k=2": "dim H_2 = 0 < 2"}),
    ("corollary4 bound", verify_corollary4, "heisenberg", {"e0": 4},
     {"bound": "dim H = 6 < 2 e0 = 8"}),
    ("remark2 bound", verify_remark2, "heisenberg", {"e0": 2},
     {"bound": "e0 = 2 < 3"}),
    ("nilmanifold b_i", verify_nilmanifold, "heisenberg",
     {"table": {"betti": (1, 1, 2, 1)}}, {"b_1": "b_1 = 1 < 2"}),
    ("nilmanifold total", verify_nilmanifold, "heisenberg",
     {"table": {"total_dimension": 5}}, {"total": "dim H = 5 < 2 dim X = 6"}),
    ("nilmanifold e0", verify_nilmanifold, "heisenberg", {"e0": 4},
     {"e0": "e0 = 4 != dim X = 3"}),
    ("conjecture5 counterexample", verify_conjecture5, "heisenberg",
     {"spectrum": (3, (1, 1, 3, 1)), "truncated": False},
     {"counterexample": "neither branch holds -- a research-grade finding "
                        "if the model is audited"}),
]


def _table_patch(method, fields):
    original = getattr(CohomologyEngine, method)
    return lambda self: original(self)._replace(**fields)


@pytest.mark.parametrize("checker, name, patches, witnesses",
                         [case[1:] for case in FAIL_CASES],
                         ids=[case[0] for case in FAIL_CASES])
def test_fail_branch_reports_its_witness(monkeypatch, checker, name, patches, witnesses):
    model = get_model(name)
    assert checker(model).verdict == "pass"
    if "spectrum" in patches:
        e0, mu = patches["spectrum"]
        fake = SimpleNamespace(e0_algebra=e0, spectrum=mu)
        monkeypatch.setattr(verifiers, "e0_spectrum", lambda m: fake)
    if "e0" in patches:
        monkeypatch.setattr(verifiers, "toomer_of_algebra", lambda m: patches["e0"])
    if "bigraded" in patches:
        monkeypatch.setattr(CohomologyEngine, "bigraded_profile",
                            _table_patch("bigraded_profile", patches["bigraded"]))
    if "table" in patches:
        monkeypatch.setattr(CohomologyEngine, "cohomology_table",
                            _table_patch("cohomology_table", patches["table"]))
    if "truncated" in patches:
        monkeypatch.setattr(verifiers, "_is_truncated_polynomial",
                            lambda engine: patches["truncated"])
    report = checker(model)
    assert report.verdict == "fail" and not report.passed
    assert report.witnesses == witnesses


def test_theorem3_short_spectrum_exits_4(monkeypatch, capsys):
    # e0 = 1 < e = 3 is a theorem failure, not an internal error
    fake = SimpleNamespace(e0_algebra=1, spectrum=(1, 2))
    monkeypatch.setattr(verifiers, "e0_spectrum", lambda m: fake)
    assert main(["verify", "theorem3", "--lib", "heisenberg"]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "model heisenberg", "  theorem3     fail", "    k=2: dim H_2 = 0 < 2"]


@pytest.mark.parametrize("name, model", [
    # b_1 = 2: not a truncated polynomial Betti pattern
    ("heisenberg", get_model("heisenberg")),
    # S^2 x S^4 has the Betti pattern of Q[z]/z^4 with |z| = 2, but z^2 = 0
    ("S2xS4", make_model(
        [("x", 2), ("y", 3), ("a", 4), ("b", 7)],
        {"y": {(2, 0, 0, 0): Fraction(1)}, "b": {(0, 0, 2, 0): Fraction(1)}},
    )),
    # CP^1 x S^3: classes in degrees 0, 2, 3, 5, and N = 5 is no multiple of 2
    ("cpl-sphere:2,1", get_model("cpl-sphere:2,1")),
    # S^3 x S^9: classes in degrees 0, 3, 9, 12, not 0, 3, 6, 9, 12
    ("S3xS9", make_model([("y", 3), ("w", 9)])),
])
def test_is_truncated_polynomial_rejects(name, model):
    assert not _is_truncated_polynomial(engine_for(model))


def test_is_truncated_polynomial_accepts_the_point():
    # the point has H = Q in degree 0 only: N = 0, the empty truncation
    assert _is_truncated_polynomial(engine_for(make_model([])))

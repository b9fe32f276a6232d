import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heattrace.cli import SpecError, _plan, main, parse_space

from _oracles import normalization_reference, parse_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def evaluate(spec: str, n_max: int):
    """The series the CLI builds for a space spec to n_max."""
    return _plan(parse_space(spec), n_max)[0]()


def _no_traces(monkeypatch):
    """Make any heat trace the spectral oracle sums fail the test."""
    from heattrace import oracle

    def no_trace(*args):
        raise AssertionError("a heat trace was summed")

    monkeypatch.setattr(oracle, "heat_trace", no_trace)


# sha256 of the --no-timestamp stdout of each argv: the rank1-deep benchmark pool
# at n = 300 and op2 at its growth-band depth 360 (first, so that op2 to 300
# reads its build), the plancherel-algebra pool's closed forms and products, the
# oracle-fit pool (its fits print the same bytes under mpmath 1.3.0), two deep
# fills at or above their orders' least precision, and the kernel suite.  The
# documents are fixed across commits: a digest that moves is a change of output.
GOLDEN = {
    ("coeffs", "--space", "op2", "--n-max", "360", "--format", "json"):
        "2cc340f7ca58ec16cf4c3177333049ff22492b05d6af774fa93b5754bb1eb008",
    ("coeffs", "--space", "op2", "--n-max", "360", "--format", "csv"):
        "248cd22681d2eb121362a56c2c8412499c786d72cd474ed05a13e736c8bb00e9",
    ("coeffs", "--space", "product(cp:2, dual(sphere:1))", "--n-max", "300", "--format", "json"):
        "9de889f645f5a53b044b95e3a95654a61ab29737e6dc659563a4886536b93217",
    ("coeffs", "--space", "product(cp:2, dual(sphere:1))", "--n-max", "300", "--format", "csv"):
        "f10db0154b690bc562ee08eff13b20d799bb5c728f09264ef3fad5e15d4b5fb8",
    ("coeffs", "--space", "product(cp:2, dual(sphere:2))", "--n-max", "300", "--format", "json"):
        "6b551148a02eb4e3b2435ec243e0a2cafc72d5e655e3f99a7f847bfb32f67d05",
    ("coeffs", "--space", "product(cp:2, dual(sphere:2))", "--n-max", "300", "--format", "csv"):
        "8639aa796490fddc61411125dae03fba26e2cbd1d70c12179875feec4e0545a7",
    ("coeffs", "--space", "product(cp:2, dual(sphere:3))", "--n-max", "300", "--format", "json"):
        "b80b659da5c4fb209055e9292675cd31c749025b10522ea718c91c7e159e3c5c",
    ("coeffs", "--space", "product(cp:2, dual(sphere:3))", "--n-max", "300", "--format", "csv"):
        "f77b6f5ffb3492b8dd7bb87f2343d8590545a93763faa8a4cb2f28d9bc7bb1af",
    ("coeffs", "--space", "cp:3", "--n-max", "300", "--format", "json"):
        "0e266fa83a8227a0529288db5f480e77b176ad7223fb2dd4c72cb08e0e83f02f",
    ("coeffs", "--space", "cp:3", "--n-max", "300", "--format", "csv"):
        "4552b8f74ccf43c7d7eceb66089f73089884ffcde36ad1881253245cf5123764",
    ("coeffs", "--space", "hp:2", "--n-max", "300", "--format", "json"):
        "86595d0a4409f75c959cb1b4692c7179b51c2959e538e9d2c2fbcec50e32ef53",
    ("coeffs", "--space", "hp:2", "--n-max", "300", "--format", "csv"):
        "3eac77b1042ab8d6d0c26818672f5140320a2f1626f15dd50b6aabc7ef51a9d3",
    ("coeffs", "--space", "op2", "--n-max", "300", "--format", "json"):
        "3183076e88c6c5284710d05e4e98773c7134518ec737c7219d93b9823b3966cd",
    ("coeffs", "--space", "op2", "--n-max", "300", "--format", "csv"):
        "56a58beead507930d4ba8e4ab282211627b15c47bcf1ea597ea040bb9fb79166",
    ("closed-form", "--family", "hyperbolic-odd:1"):
        "3da244e824d8892ebdb89ad944eaa7fdd6d23e60569e298ae9ee3900b7b59504",
    ("closed-form", "--family", "hyperbolic-odd:2"):
        "ee53669b11a4065c750674401d5729f36ee098908a313ffe8ba965574ebd35e6",
    ("closed-form", "--family", "hyperbolic-odd:3"):
        "414bc9cffc87aa43236f05fa27c7dbf6a1859f6b906df3a73ee223d38b67d27f",
    ("closed-form", "--family", "hyperbolic-odd:4"):
        "e9cb44414964e9dec995a51183fde40173227e125e97880996d27e5af6f8fb23",
    ("closed-form", "--family", "hyperbolic-odd:5"):
        "822b6fd5a2bb13c2ccecfd5a3188ce71bceba0ba49d1e271dee46ba841b0f88d",
    ("closed-form", "--family", "e6-f4"):
        "e54176555a5fc99f1d2f297d3c386b6e7aa9b98e2ca7b706cecd829d418a7747",
    ("closed-form", "--family", "su-star:3"):
        "5aba751ab7c05447e7549f2e8c3decbee8422676a77ce16dd35f88beb740c7f6",
    ("closed-form", "--family", "complex-group:A2"):
        "1957da3a31fda314890da0f537311076fec2a7c741e84fcef84390f1d99b7591",
    ("closed-form", "--family", "complex-group:A3"):
        "565f802e1d25fc11f7be4023c1090bc5e3abed92195b07228a30fd0b04c60052",
    ("closed-form", "--family", "complex-group:B2"):
        "1f0962b02223ead590d046f231c3492d6ef8f6d766cf13e006a1cd8741be9b98",
    ("closed-form", "--family", "complex-group:B3"):
        "cbd1208f2426c590e0d961deee7b619ed3559f442620f924dd5431f77af52938",
    ("closed-form", "--family", "complex-group:B4"):
        "b8de75c1ed83e9ca8ac64c480f475e49d3ce2a0b046d69c58ef907a0dbc0ca43",
    ("closed-form", "--family", "complex-group:B5"):
        "b9f7c988e06dacb7303cbd05f0c5ebe0d48e8ca547400fb159e4501ff2396649",
    ("closed-form", "--family", "complex-group:C2"):
        "43dce4ae83389460882c2161a037f57eb217af0c614258a399271e5a31e61e5a",
    ("closed-form", "--family", "complex-group:C3"):
        "edc045db87bb2e8406a4d1fc850d9b798352d3c7d91ad80cbff4260880df8f93",
    ("closed-form", "--family", "complex-group:C4"):
        "1943b05eb0ae22334c2c3896ee69956a01ac4f9041a798d4b6b87bf3b960c2d6",
    ("closed-form", "--family", "complex-group:C5"):
        "492abcaa35c1f3acf6045d721c471c2388e9f02a3a6ac990995b6e571ba4fa2f",
    ("closed-form", "--family", "complex-group:D3"):
        "5371178c534396cb0823eda87aba6cdbef7dbb1af37380de736b02b4f5ec6a02",
    ("closed-form", "--family", "complex-group:D4"):
        "5251ac3f96946cae9653483715af1c0768aa4d980f6e6a5a366f1b5600479227",
    ("closed-form", "--family", "complex-group:D5"):
        "5a46ca4c2ab2f01d09368088cf6e513463520d4832f42bcc746592601bf52190",
    ("closed-form", "--family", "su-star:4"):
        "071d3c2365ac4099a97e5a715d0a48eac3865a0681527935ed24482cf1c0378c",
    ("coeffs", "--space", "product(su-star:3, e6-f4, dual(hyperbolic-odd:4))", "--n-max", "300"):
        "bbe77fcf0e07fa3a29540381a821681b3361e282ffb12d30c64e36d1b8f8e01f",
    ("coeffs", "--space", "product(hyperbolic-odd:1, dual(hyperbolic-odd:1))", "--n-max", "300"):
        "51903abcb1c5fc11e95bd205243486d66c9171d8adc332969547ca4f024c110f",
    ("coeffs", "--space", "sphere:3", "--n-max", "20", "--oracle-fill"):
        "831c33e767800c2a456adc79122d00f985e7c38afce3c24b385e433ff837b32e",
    ("coeffs", "--space", "sphere:4", "--n-max", "20", "--oracle-fill"):
        "8a7498c3abd0fc719f2d82153c17f26c813b99a68bb95984d622f7ef63c32f07",
    ("coeffs", "--space", "sphere:5", "--n-max", "20", "--oracle-fill"):
        "b2e601851af0cbc5fb300ce0309cdafbc700e6c12baa0e3d7192f4b711de5820",
    ("coeffs", "--space", "sphere:9", "--n-max", "10", "--oracle-fill"):
        "27a0e79832325feda36897c34b47898def5f5dd79da0a438b44b47b514259ace",
    ("coeffs", "--space", "sphere:10", "--n-max", "11", "--oracle-fill",
     "--oracle-precision", "31"):
        "374b87fa320161ba44f6e87a5caab35d073de346c055ca273ec2a66e84e2bc33",
    ("verify", "--suite", "unit-s3-chain"):
        "06db9fa7a50e5b67226761db60ab7e5db9e750bdb4c6d1a18bfcbab2fb6309a6",
    ("verify", "--suite", "kernel"):
        "3d5307d4fd06e53444b04e8ba001667aebe48c3054e47a8ed61aab0f8c24f1d8",
}


def test_golden_documents(capsys):
    import hashlib

    for argv, digest in GOLDEN.items():
        code, out, _ = run(capsys, *argv, "--no-timestamp")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of the --no-timestamp closed-form document of the built-in families that
# the benchmark pool does not run, recorded before the density expansion moved to
# packed monomials and the complex groups stopped expanding theirs.
CLOSED_FORM_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "closed_form_sha256.json").read_text())


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_GOLDEN))
def test_golden_closed_forms(capsys, family):
    import hashlib

    code, out, _ = run(capsys, "closed-form", "--family", family, "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLOSED_FORM_GOLDEN[family]


def _patch_builders(monkeypatch, builder):
    """Replace every series builder the CLI reaches: the rank-one series, the
    Plancherel closed form and the Cauchy product."""
    from heattrace import plancherel, rank1, series

    for module, name in ((rank1, "rank1_series"), (plancherel, "closed_form"),
                         (series, "product")):
        monkeypatch.setattr(module, name, builder)


@pytest.fixture
def no_build(monkeypatch):
    """Make any series build fail the test: the request must be refused first."""
    def no_build(*args, **kwargs):
        raise AssertionError("a refused request built a series")

    _patch_builders(monkeypatch, no_build)


@pytest.fixture
def no_model(monkeypatch, no_build):
    """Make any atom model or series build fail the test: the request must be
    refused before the plan reads a single atom."""
    from heattrace import plancherel, rank1

    def no_model(*args):
        raise AssertionError("a refused request built a model")

    monkeypatch.setattr(rank1, "atom_model", no_model)
    monkeypatch.setattr(plancherel, "build_family", no_model)


def _reference_tokenize(text: str) -> list[str]:
    """The spec tokenizer as a character loop, the reference for cli._tokenize."""
    out = []
    cur = ""
    for ch in text:
        if ch in "(),":
            if cur.strip():
                out.append(cur.strip())
            cur = ""
            out.append(ch)
        else:
            cur += ch
    if cur.strip():
        out.append(cur.strip())
    return out


class TestSpaceSpecParser:
    def test_atoms(self):
        assert parse_space("sphere:2") == {"kind": "atom", "family": "sphere", "param": "2"}
        assert parse_space("op2") == {"kind": "atom", "family": "op2", "param": None}
        assert parse_space("complex-group:B2")["param"] == "B2"

    def test_combinators_nest(self):
        tree = parse_space("product(scale(sphere:1, 3/2), dual(hyperbolic-odd:1))")
        assert tree["kind"] == "product"
        assert tree["children"][0]["kind"] == "scale"
        assert tree["children"][0]["c2"] == "3/2"
        assert tree["children"][1]["kind"] == "dual"

    def test_rejects_garbage(self):
        for bad in ("moebius:2", "sphere", "dual(sphere:1", "scale(sphere:1)",
                    "product(sphere:1)", "sphere:1 extra", "scale(sphere:1, -2)"):
            with pytest.raises(ValueError):
                parse_space(bad)
        # str.isdigit accepts other scripts' digits and superscripts
        for bad in ("sphere:\u0663", "sphere:\u00b2"):
            with pytest.raises(SpecError, match="must be a positive integer"):
                parse_space(bad)
        with pytest.raises(SpecError, match="must look like 'A2'"):
            parse_space("complex-group:A\u0663")

    @pytest.mark.parametrize("depth", [100, 101, 1000])
    def test_nesting_limit(self, capsys, depth):
        # a deep spec used to end in a RecursionError traceback (exit 1) from
        # depth 1000 on; past 100 it is refused before it is parsed
        spec = "dual(" * depth + "sphere:1" + ")" * depth
        code, out, err = run(capsys, "coeffs", "--space", spec, "--n-max", "3",
                             "--no-timestamp")
        if depth <= 100:
            assert code == 0, err
            assert json.loads(out)["normalization"] == {"label": "unit_curvature", "scale": "1"}
        else:
            assert code == 2 and out == ""
            assert err == "error: space spec nests combinators deeper than 100\n"

    @given(st.text(st.sampled_from("(),: \t\nabcdeAEsphr-12309") | st.characters(),
                   max_size=40))
    @example("product( sphere:1 ,dual(cp: 2)) ")
    @example(" , \n(")
    def test_tokens_equal_the_character_loop(self, text):
        from heattrace.cli import _tokenize

        assert _tokenize(text) == _reference_tokenize(text)

    @pytest.mark.parametrize("spec", ["sphere:" + "1" * 4301, "complex-group:A" + "1" * 4301],
                             ids=["sphere", "complex-group"])
    def test_parameter_past_the_digit_limit_refused(self, spec):
        with pytest.raises(SpecError, match="parameter has more than 4300 digits"):
            parse_space(spec)
        # 4300 digits are read: the model applies its own range
        assert parse_space(spec[:-1])["param"] == spec[spec.index(":") + 1:-1]

    def test_parsing_builds_no_model(self, no_model):
        tree = parse_space("product(sphere:0, hp:4, su-star:9, complex-group:A9)")
        assert [c["param"] for c in tree["children"]] == ["0", "4", "9", "A9"]

    @pytest.mark.parametrize("argv, message", [
        (("coeffs", "--space", "product(sphere:1, su-star:9)", "--n-max", "1000"),
         "su_star requires 2 <= mbar <= 5"),
        (("coeffs", "--space", "product(sphere:1, complex-group:E8)", "--n-max", "1000"),
         "exceptional complex type E8 is not built in"),
        (("growth", "--space", "product(op2, complex-group:A9)"),
         "A-type complex group rank must be between 1 and 5"),
    ])
    def test_bad_plancherel_atom_refused_before_any_build(self, capsys, no_build, argv,
                                                          message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_hyperbolic_odd_capped_at_500(self, capsys, no_build):
        start = time.perf_counter()
        code, out, err = run(capsys, "coeffs", "--space", "hyperbolic-odd:501", "--n-max", "10")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "hyperbolic_odd requires 1 <= mbar <= 500" in err
        assert parse_space("hyperbolic-odd:500")["param"] == "500"

    def test_evaluator_matches_library(self):
        s = evaluate("scale(dual(hyperbolic-odd:1), 4)", 10)
        for n in range(11):
            assert s[n] == Fraction(1, math.factorial(n))


class TestCoeffsCommand:
    def test_sphere_json(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "4",
                           "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1.0"
        assert doc["normalization"] == {"label": "unit_curvature", "scale": "1"}
        assert doc["coefficients"][0] == {
            "n": 0, "num": "1", "den": "1", "pi_power": 0, "validity": "exact"
        }
        assert doc["coefficients"][2]["num"] == "1"
        assert doc["coefficients"][2]["den"] == "15"

    def test_hyperbolic_exponential(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--space", "hyperbolic-odd:1",
                           "--n-max", "5", "--no-timestamp")
        doc = json.loads(out)
        for entry in doc["coefficients"]:
            n = entry["n"]
            expected = Fraction(-1, 4) ** n / math.factorial(n)
            assert Fraction(int(entry["num"]), int(entry["den"])) == expected

    def test_corollary_product_zeros(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--space",
                           "product(hyperbolic-odd:1, dual(hyperbolic-odd:1))",
                           "--n-max", "100", "--no-timestamp")
        doc = json.loads(out)
        for entry in doc["coefficients"][1:]:
            assert entry["num"] == "0"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "3",
                           "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,num,den,pi_power,validity"
        assert lines[2] == "1,1,3,0,exact"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "coeffs", "--space", "cp:2", "--n-max", "12",
                         "--no-timestamp")
        _, out2, _ = run(capsys, "coeffs", "--space", "cp:2", "--n-max", "12",
                         "--no-timestamp")
        assert out1 == out2

    def test_round_trip_bit_identical(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--space", "scale(hp:2, 3/7)",
                        "--n-max", "9", "--no-timestamp")
        doc, series = parse_document(out)
        from heattrace.cli import coefficients_document, render_json

        again = render_json(coefficients_document(
            doc["space"]["spec"], doc["space"]["tree"], doc["normalization"], series, None,
            False))
        assert again == out

    def test_round_trip_past_the_int_digit_limit(self):
        import sys

        from heattrace.cli import coefficients_document, render_csv, render_json
        from heattrace.series import HeatSeries

        big = Fraction(7 ** 6000, 3 ** 5000)  # 5071-digit numerator, 2386-digit denominator
        s = HeatSeries([Fraction(1), -big, big / 11], provenance="big")
        limit = sys.get_int_max_str_digits()
        doc = coefficients_document("sphere:1", parse_space("sphere:1"),
                                    {"label": "unit_curvature", "scale": "1"}, s, None, False)
        text = render_json(doc)
        doc, back = parse_document(text)
        assert back.coeffs == s.coeffs
        assert len(doc["coefficients"][1]["num"]) > 4300
        rows = [line.split(",") for line in render_csv(s).splitlines()[1:]]
        assert [(r[1], r[2]) for r in rows] == [
            (e["num"], e["den"]) for e in doc["coefficients"]]
        assert sys.get_int_max_str_digits() == limit

    def test_deep_sphere_serializes(self, capsys):
        code, out, err = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "1000",
                             "--no-timestamp")
        assert code == 0, err
        last = json.loads(out)["coefficients"][-1]
        assert last["n"] == 1000 and len(last["num"]) > 4300

    def test_decimal_field(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "2",
                        "--no-timestamp", "--decimal", "6")
        doc = json.loads(out)
        assert doc["coefficients"][1]["decimal"].startswith("0.33333")

    def test_decimal_below_one_refused(self, capsys):
        for argv in (("coeffs", "--space", "sphere:1", "--n-max", "2"),
                     ("closed-form", "--family", "hyperbolic-odd:2")):
            for digits in ("0", "-3", "4301"):
                code, out, err = run(capsys, *argv, "--no-timestamp", f"--decimal={digits}")
                assert code == 2 and out == ""
                assert "--decimal" in err
            code, out, err = run(capsys, *argv, "--no-timestamp", "--decimal=4300")
            assert code == 0, err

    def test_oracle_fill_through_cli(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--space", "sphere:2", "--n-max", "3",
                           "--oracle-fill", "--oracle-precision", "30",
                           "--no-timestamp", "--decimal", "10")
        assert code == 0
        doc = json.loads(out)
        gap = doc["coefficients"][1]
        assert gap["validity"] == "approximate"
        assert abs(float(gap["decimal"]) - 2.0) < 1e-8  # A_1(S^4) = tau/6 = 2
        assert doc["coefficients"][2]["validity"] == "exact"
        code, out, _ = run(capsys, "coeffs", "--space", "sphere:2", "--n-max", "3",
                           "--format", "csv")
        assert code == 0 and out.splitlines()[2] == "1,0,1,0,unavailable"

    def test_oracle_fill_of_a_gap_cut_by_n_max(self, capsys):
        # the fit spans sphere:3's whole gap, 1..2, whatever n_max keeps of it
        docs = []
        for n_max in ("1", "20"):
            code, out, err = run(capsys, "coeffs", "--space", "sphere:3", "--n-max", n_max,
                                 "--oracle-fill", "--no-timestamp")
            assert code == 0, err
            docs.append(json.loads(out)["coefficients"])
        cut, whole = docs
        assert [c["validity"] for c in cut] == ["exact", "approximate"]
        assert cut[1] == whole[1]

    def test_oracle_precision_refused_before_the_fit(self, capsys, monkeypatch):
        _no_traces(monkeypatch)
        for precision in ("3000", "100000"):
            code, out, err = run(capsys, "coeffs", "--space", "sphere:3", "--n-max", "20",
                                 "--oracle-fill", "--oracle-precision", precision)
            assert code == 2 and out == ""
            assert f"argument --oracle-precision: must be in [1, 500], got {precision}" in err

    @pytest.mark.parametrize("argv, message", [
        (("cp:3", "--oracle-fill"),
         "oracle fill is only available for spheres, not complex_projective"),
        (("product(sphere:1, cp:3)", "--oracle-fill"),
         "oracle fill is only available for spheres, not complex_projective"),
        (("product(sphere:1, sphere:3)", "--oracle-fill", "--oracle-precision", "0"),
         "argument --oracle-precision: must be in [1, 500], got 0"),
        (("product(sphere:1, sphere:3)", "--oracle-fill", "--oracle-precision", "501"),
         "argument --oracle-precision: must be in [1, 500], got 501"),
        (("product(sphere:1, sphere:13)", "--oracle-fill"),
         "a spectral fit to order 12 needs at least 60 digits (--oracle-precision 60)"),
    ], ids=["non-sphere-atom", "non-sphere", "precision-0", "precision-501",
            "ill-conditioned"])
    def test_oracle_fill_refused_before_any_build(self, capsys, no_build, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "coeffs", "--n-max", "1000", "--space", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert message in err

    def test_oracle_fill_past_the_fit_order_limit_refused_before_any_build(
            self, capsys, no_build):
        # sphere:14 needs 13 orders, past the 12 a ladder of orders + 12 points spans
        for spec in ("sphere:14", "product(cp:2, sphere:14)"):
            code, out, err = run(capsys, "coeffs", "--space", spec, "--n-max", "14",
                                 "--oracle-fill")
            assert code == 2 and out == ""
            assert "the spectral fit spans at most 12 orders, not 13" in err

    def test_oracle_fill_of_sphere13_is_refused_as_ill_conditioned(self, capsys):
        code, out, err = run(capsys, "coeffs", "--space", "sphere:13", "--n-max", "14",
                             "--oracle-fill")
        assert code == 2 and out == ""
        assert ("a spectral fit to order 12 needs at least 60 digits "
                "(--oracle-precision 60), not 30") in err

    @pytest.mark.parametrize("spec, precision, orders, need", [
        ("sphere:9", "22", 8, 23),
        ("sphere:10", "30", 9, 31),
        ("sphere:11", "30", 10, 40),
        ("sphere:12", "33", 11, 50),
        ("sphere:13", "38", 12, 60),
    ])
    def test_oracle_fill_below_its_least_precision_refused_before_any_trace(
            self, capsys, monkeypatch, spec, precision, orders, need):
        # without the per-order table these fills sum every trace, then stop in
        # the QR solver
        _no_traces(monkeypatch)
        code, out, err = run(capsys, "coeffs", "--space", spec, "--n-max", str(orders + 2),
                             "--oracle-fill", "--oracle-precision", precision)
        assert code == 2 and out == ""
        assert (f"a spectral fit to order {orders} needs at least {need} digits "
                f"(--oracle-precision {need}), not {precision}") in err

    def test_oracle_fill_of_gapless_atoms_is_accepted(self, capsys):
        # sphere:1 and cp:2 have threshold 1, so there is nothing to fill
        code, out, err = run(capsys, "coeffs", "--space", "product(sphere:1, cp:2)",
                             "--n-max", "3", "--oracle-fill", "--format", "csv")
        assert code == 0, err
        assert "approximate" not in out and "unavailable" not in out

    def test_refuses_hp_without_a_positive_volume(self, capsys):
        for spec in ("hp:4", "product(hp:6, sphere:1)", "hp:300"):
            code, out, err = run(capsys, "coeffs", "--space", spec, "--n-max", "30")
            assert code == 2 and out == ""
            assert "non-positive volume constant" in err
        for spec in ("hp:2", "hp:3", "hp:5"):
            code, out, _ = run(capsys, "coeffs", "--space", spec, "--n-max", "30",
                               "--format", "csv")
            assert code == 0 and out.count("\n") == 32

    @pytest.mark.parametrize("spec", ["hp:301", "hp:1000", "product(sphere:1, hp:5000)"])
    def test_hp_past_the_checked_range_refused_quickly(self, capsys, no_build, spec):
        start = time.perf_counter()
        code, out, err = run(capsys, "coeffs", "--space", spec, "--n-max", "1000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "is past hp:300, the largest HP^M whose volume constant is checked" in err

    @pytest.mark.parametrize("c2", ["1e5000", "1e10000000", "1E+99_999_999", "5e-5000",
                                    "1e-10000000"])
    def test_oversized_scale_factor_refused_quickly(self, capsys, c2):
        start = time.perf_counter()
        code, out, err = run(capsys, "coeffs", "--space", f"scale(sphere:1, {c2})",
                             "--n-max", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"scale factor {c2!r} has more than 4300 digits" in err

    def test_scale_factor_under_the_digit_limit(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--space", "scale(sphere:1, 1e4000)",
                           "--n-max", "3", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["space"]["tree"]["c2"] == "1" + "0" * 4000
        assert doc["coefficients"][1]["num"] == "1" + "0" * 4000
        code, _, err = run(capsys, "coeffs", "--space", "scale(sphere:1, 0e10000000)",
                           "--n-max", "3")
        assert code == 2 and "scale factor must be positive" in err

    def test_usage_errors(self, capsys):
        code, _, err = run(capsys, "coeffs", "--space", "nonsense:1", "--n-max", "3")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "2000")
        assert code == 2
        code, _, _ = run(capsys, "coeffs", "--space", "cp:3", "--n-max", "5",
                         "--oracle-fill")
        assert code == 2  # oracle fill unsupported off the sphere family


class TestClosedFormCommand:
    def test_h3(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "hyperbolic-odd:1",
                           "--no-timestamp")
        doc = json.loads(out)
        assert doc["kappa"] == {"num": "-1", "den": "4", "pi_power": 0}
        assert doc["degree"] == 0

    def test_h5_polynomial(self, capsys):
        _, out, _ = run(capsys, "closed-form", "--family", "hyperbolic-odd:2",
                        "--no-timestamp")
        doc = json.loads(out)
        assert doc["kappa"] == {"num": "-1", "den": "2", "pi_power": 0}
        assert doc["poly"][1] == {"h": 1, "num": "1", "den": "12", "pi_power": 0}

    def test_e6_degree_bound(self, capsys):
        _, out, _ = run(capsys, "closed-form", "--family", "e6-f4", "--no-timestamp")
        doc = json.loads(out)
        assert doc["degree_bound"] == 12
        assert doc["degree"] == 9
        assert doc["leading_t_exponent"] == "-13"

    def test_a1_equals_h3(self, capsys):
        _, out1, _ = run(capsys, "closed-form", "--family", "complex-group:A1",
                         "--no-timestamp")
        _, out2, _ = run(capsys, "closed-form", "--family", "hyperbolic-odd:1",
                         "--no-timestamp")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["kappa"] == d2["kappa"] and d1["poly"] == d2["poly"]

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "label": "custom-h3", "r": 1, "m": 3, "rho_sq": "1/4",
            "form": [["1/4"]], "p": [{"exponents": [2], "coeff": "1"}],
        }))
        code, out, _ = run(capsys, "closed-form", "--model-file", str(path),
                           "--no-timestamp")
        assert code == 0
        assert json.loads(out)["kappa"]["den"] == "4"

    @pytest.mark.parametrize("doc, key", [
        ({"r": 1, "m": 3, "rho_sq": "1/4", "form": [["1/4"]]}, "p"),
        ({"r": 1, "m": 3, "rho_sq": "1/4", "form": [["1/4"]],
          "p": [{"exponents": 2, "coeff": "1"}]}, "exponents"),
        ([1, 3], "r"),
        ({"r": 1.9, "m": 3, "rho_sq": "1/4", "form": [["1/4"]],
          "p": [{"exponents": [2], "coeff": "1"}]}, "r"),
        ({"r": 1, "m": True, "rho_sq": "1/4", "form": [["1/4"]],
          "p": [{"exponents": [2], "coeff": "1"}]}, "m"),
        ({"r": 1, "m": 3, "rho_sq": "1/4", "form": [["1/4"]],
          "p": [{"exponents": [2.7], "coeff": "1"}]}, "exponents"),
        ({"r": 1, "m": 3, "rho_sq": "1/4", "form": [["1/4"]],
          "p": [{"exponents": ["2"], "coeff": "1"}]}, "exponents"),
        ({"r": 1, "m": 3, "rho_sq": "1/4", "form": [["abc"]],
          "p": [{"exponents": [2], "coeff": "1"}]}, "form"),
        ({"r": 1, "m": 3, "rho_sq": "1/0", "form": [["1/4"]],
          "p": [{"exponents": [2], "coeff": "1"}]}, "rho_sq"),
    ], ids=["missing-p", "scalar-exponents", "top-level-array", "float-r", "bool-m",
            "float-exponent", "string-exponent", "malformed-form-entry", "zero-denominator"])
    def test_model_file_schema_errors(self, capsys, tmp_path, doc, key):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "closed-form", "--model-file", str(path))
        assert code == 2 and out == ""
        assert f"model file {path}: cannot read key {key!r}" in err

    @pytest.mark.parametrize("key", ["rho_sq", "form", "coeff"])
    @pytest.mark.parametrize("value", ["1e999999999", "1e-999999999", "1e5000"])
    def test_oversized_model_file_rational_refused_quickly(self, capsys, tmp_path, key,
                                                           value):
        doc = {"r": 1, "m": 3, "rho_sq": "1/4", "form": [["1/4"]],
               "p": [{"exponents": [2], "coeff": "1"}]}
        if key == "rho_sq":
            doc["rho_sq"] = value
        elif key == "form":
            doc["form"] = [[value]]
        else:
            doc["p"][0]["coeff"] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "closed-form", "--model-file", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"model file {path}: cannot read key {key!r}" in err
        assert f"{value!r} has more than 4300 digits" in err

    @pytest.mark.parametrize("doc, message", [
        ({"r": 1, "m": 4, "rho_sq": "1/4", "form": [["1"]],
          "p": [{"exponents": [3], "coeff": "1"}]}, "m - r must be even"),
        ({"r": 1, "m": 5, "rho_sq": "1/4", "form": [["1"]],
          "p": [{"exponents": [2], "coeff": "1"}]}, "density degree 2 != m - r = 4"),
        ({"r": 2, "m": 4, "rho_sq": "1/4", "form": [["1", "1/2"], ["1/3", "1"]],
          "p": [{"exponents": [2, 0], "coeff": "1"}]}, "form matrix must be symmetric"),
    ], ids=["odd-m-minus-r", "degree-not-m-minus-r", "asymmetric-form"])
    def test_model_file_faults_are_usage_errors(self, capsys, tmp_path, doc, message):
        # a fault in a user's model is exit 2, not 3, which is kept for bugs
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "closed-form", "--model-file", str(path))
        assert code == 2 and out == ""
        assert message in err and "invariant" not in err

    @staticmethod
    def sized_model(r: int, degree: int, dense: bool) -> dict:
        """A model file on r coordinates with the density x_1^degree, on the form
        I + J when dense, else I."""
        return {"r": r, "m": r + degree, "rho_sq": "1/4",
                "form": [[str(int(i == j) + int(dense)) for j in range(r)] for i in range(r)],
                "p": [{"exponents": [degree] + [0] * (r - 1), "coeff": "1"}]}

    @pytest.mark.parametrize("r, degree, dense, message", [
        (1, 1000, False, None),
        (1, 1002, False, "m - r = 1002 exceeds the degree limit 1000"),
        (1, 60_000, False, "m - r = 60000 exceeds the degree limit 1000"),
        (1, 200_000, False, "m - r = 200000 exceeds the degree limit 1000"),
        (12, 0, True, None),
        (13, 0, False, "13 coordinates exceed the limit 12"),
        (60, 0, True, "60 coordinates exceed the limit 12"),
        (120, 0, True, "120 coordinates exceed the limit 12"),
        (6, 10, True, None),
        (6, 12, True, "C(m, r) = 18564 terms, past the limit 10000"),
        (6, 40, True, "C(m, r) = 9366819 terms"),
        (8, 40, True, "C(m, r) = 377348994 terms"),
        (12, 1000, False, None),
    ])
    def test_model_file_size_limits(self, capsys, monkeypatch, tmp_path, r, degree, dense,
                                    message):
        # each refusal comes before any diagonalization or shear, and an
        # accepted model at a limit finishes within about a second
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.sized_model(r, degree, dense)))
        if message:
            _patch_builders(monkeypatch, None)
        start = time.perf_counter()
        code, out, err = run(capsys, "closed-form", "--model-file", str(path), "--no-timestamp")
        assert time.perf_counter() - start < (1.0 if message else 3.0)
        if message:
            assert code == 2 and out == ""
            assert f"model file {path}: " in err and message in err
        else:
            assert code == 0, err
            assert json.loads(out)["degree_bound"] == degree // 2

    @pytest.mark.parametrize("text, message", [
        ("[" * 1000 + "]" * 1000, "maximum recursion depth exceeded"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"r": 1,', "Expecting property name enclosed in double quotes")],
        ids=["nested-1000", "nested-100000", "truncated"])
    def test_undecodable_model_file_refused(self, capsys, tmp_path, text, message):
        # the decoder's RecursionError ended in a traceback and exit 1
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run(capsys, "closed-form", "--model-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: model file {path}: cannot decode its JSON (")
        assert message in err

    @pytest.mark.parametrize("flags", [(), ("--family", "hyperbolic-odd:1",
                                            "--model-file", "m.json")],
                             ids=["neither", "both"])
    def test_needs_exactly_one_model_source(self, capsys, flags):
        # main returns, where neither flag used to raise a TypeError from the spec parser
        code, out, err = run(capsys, "closed-form", *flags)
        assert code == 2 and out == ""
        assert "--family" in err and "--model-file" in err

    def test_rejects_rank1_atom(self, capsys):
        for family in ("sphere:1", "sphere:0", "hp:4"):
            code, out, err = run(capsys, "closed-form", "--family", family)
            assert code == 2 and out == ""
            assert "closed-form expects a polynomial-Plancherel family atom" in err

    def test_refuses_ranks_that_cannot_finish(self, capsys):
        for family in ("complex-group:A6", "complex-group:B7", "su-star:6"):
            code, out, err = run(capsys, "closed-form", "--family", family)
            assert code == 2 and out == ""
            assert "must be between" in err or "requires" in err


class TestGrowthCommand:
    def test_decaying_series(self, capsys):
        code, out, _ = run(capsys, "growth", "--space", "dual(hyperbolic-odd:1)",
                           "--n-max", "150", "--no-timestamp")
        doc = json.loads(out)
        assert doc["growth"]["classification"] == "factorial_decay"

    def test_vanishing_product(self, capsys):
        _, out, _ = run(capsys, "growth", "--space",
                        "product(hyperbolic-odd:1, dual(hyperbolic-odd:1))",
                        "--n-max", "150", "--no-timestamp")
        doc = json.loads(out)
        assert doc["growth"]["classification"] == "vanishing"

    @pytest.mark.parametrize("spec, c, c1_min", [
        ("product(sphere:1, dual(sphere:1))", 1 / math.pi ** 2, 0.10540925533894598),
        ("product(cp:2, dual(cp:2))", 3 / math.pi ** 2, 0.31887440145529594)],
        ids=["sphere:1", "cp:2"])
    def test_rank_one_times_its_dual_grows(self, capsys, spec, c, c1_min):
        # A(t) A(-t) has exact zeros at every odd n, which read as 'vanishing'
        # once; its even coefficients grow like C^n n!
        code, out, err = run(capsys, "growth", "--space", spec, "--n-max", "300",
                             "--no-timestamp")
        assert code == 0, err
        report = json.loads(out)["growth"]
        assert report["classification"] == "factorial_growth"
        assert abs(report["C_estimate"] / c - 1) < 0.05
        assert report["epsilon_band"] == [{"epsilon": 0.2, "N": 50}]
        assert report["C1_min"] == c1_min

    @pytest.mark.parametrize("window", [
        (), ("--n-max", "305"), ("--n-max", "320", "--n-min", "305")],
        ids=["degree-n_max", "past-the-degree", "n_min-past-the-degree"])
    def test_polynomial_of_degree_near_n_max_vanishes(self, capsys, window):
        # P(t) P(-t) of degree 300 has exact zeros at every odd n but no long
        # trailing zero run; kappa = 0 makes it a polynomial all the same
        code, out, err = run(capsys, "growth", "--space",
                             "product(hyperbolic-odd:150, dual(hyperbolic-odd:150))",
                             "--no-timestamp", *window)
        assert code == 0, err
        report = json.loads(out)["growth"]
        assert (report["classification"], report["C_estimate"]) == ("vanishing", 0.0)


class TestGrowthRefusals:
    @pytest.mark.parametrize("spec, index", [("product(sphere:2, sphere:1)", 50),
                                             ("product(hp:2, op2)", 50),
                                             ("product(sphere:50, cp:200, op2)", 50),
                                             ("product(dual(scale(op2, 2)), cp:2)", 50)])
    def test_unavailable_coefficients_are_not_vanishing(self, capsys, no_build, spec, index):
        code, out, err = run(capsys, "growth", "--space", spec)
        assert code == 2 and out == ""
        assert f"A_{index} is unavailable" in err

    def test_n_min_below_the_threshold(self, capsys, no_build):
        code, out, err = run(capsys, "growth", "--space", "sphere:2", "--n-min", "1")
        assert code == 2 and out == ""
        assert "A_1 is unavailable" in err

    def test_n_min_past_n_max_refused_before_any_build(self, capsys, no_build):
        # an empty window read as 'vanishing' once: the window must be refused
        code, out, err = run(capsys, "growth", "--space",
                             "product(hyperbolic-odd:1, dual(hyperbolic-odd:1))",
                             "--n-max", "300", "--n-min", "400")
        assert code == 2 and out == ""
        assert "n_min must lie in [1, 300], got 400" in err

    @pytest.mark.parametrize("flag, value", [("--n-min", "-40"), ("--n-min", "0"),
                                             ("--epsilon", "1.5"), ("--epsilon", "0"),
                                             ("--epsilon", "-0.5"), ("--epsilon", "nan")])
    def test_bad_window_or_epsilon_refused_before_any_build(self, capsys, no_build,
                                                            flag, value):
        code, out, err = run(capsys, "growth", "--space", "sphere:2", flag, value)
        assert code == 2 and out == ""
        assert flag in err

    def test_short_window_refused_before_any_build(self, capsys, no_build):
        start = time.perf_counter()
        code, out, err = run(capsys, "growth", "--space", "product(sphere:1, cp:2)",
                             "--n-max", "600", "--n-min", "580")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "need n_max >= n_min + 50" in err

    @pytest.mark.parametrize("spec, n_max", [("su-star:5", 1000), ("scale(su-star:5, 3)", 400)])
    def test_short_window_of_a_plancherel_tree_refused_before_any_build(self, capsys, no_build,
                                                                        spec, n_max):
        # kappa != 0 and deg P <= 20: at most 20 coefficients vanish, so the series
        # cannot be classified as vanishing (each built for about 2 s before)
        start = time.perf_counter()
        code, out, err = run(capsys, "growth", "--space", spec,
                             "--n-max", str(n_max), "--n-min", str(n_max - 20))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "need n_max >= n_min + 50" in err

    @pytest.mark.parametrize("spec", ["scale(sphere:1, 1e400)", "scale(hyperbolic-odd:1, 1e400)"])
    def test_growth_constant_past_the_float_range_refused(self, capsys, spec):
        # C is about 1e400 / pi^2; its float overflowed into a traceback and exit 1
        code, out, err = run(capsys, "growth", "--space", spec, "--n-max", "300")
        assert code == 2 and out == ""
        assert "past the float range" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["sphere:1", "product(sphere:1, cp:2)"])
    def test_exact_window_reaches_the_build(self, monkeypatch, spec):
        class Built(Exception):
            pass

        def build(*args, **kwargs):
            raise Built

        _patch_builders(monkeypatch, build)
        with pytest.raises(Built):
            main(["growth", "--space", spec])


# Cheap atoms, and trees over them with dual, scale and product to depth 2.
_CHEAP_ATOMS = st.sampled_from(["sphere:1", "sphere:2", "sphere:3", "cp:2", "cp:3", "hp:2",
                                "op2", "hyperbolic-odd:1"])


def _combined(inner):
    return st.one_of(
        inner.map("dual({})".format),
        st.builds("scale({}, {})".format, inner, st.sampled_from(["2", "1/3"])),
        st.lists(inner, min_size=2, max_size=3).map(", ".join).map("product({})".format),
    )


_DEPTH_1 = st.one_of(_CHEAP_ATOMS, _combined(_CHEAP_ATOMS))


_TREES = st.one_of(_DEPTH_1, _combined(_DEPTH_1))


@given(spec=_TREES, n_max=st.integers(1, 12))
def test_gap_agrees_with_the_built_flags(spec, n_max):
    # growth refuses from the plan's gap before building: for each n_min it must
    # name an index exactly when the builder flags one on [n_min, n_max] as not exact
    tree = parse_space(spec)
    build, _ = _plan(tree, n_max)
    flags = build().validity
    for n_min in range(1, n_max + 1):
        try:
            _plan(tree, n_max, n_min=n_min)
            refused = False
        except SpecError as exc:
            refused = "is unavailable" in str(exc)
        assert refused == any(f != "exact" for f in flags[n_min:]), (spec, n_min)


# Any atom, and trees over atoms with dual, scale and product to depth 4.
_ANY_TREES = st.sampled_from(["sphere:1", "sphere:3", "cp:2", "hp:2", "op2", "hyperbolic-odd:1",
                              "su-star:3", "e6-f4", "complex-group:A2"])
for _ in range(4):
    _ANY_TREES = st.one_of(_ANY_TREES, _combined(_ANY_TREES))


@given(spec=_ANY_TREES, n_max=st.integers(0, 12))
def test_plan_normalization_matches_the_former_second_walk(spec, n_max):
    tree = parse_space(spec)
    assert _plan(tree, n_max)[1] == normalization_reference(tree), spec


def test_closed_form_builds_its_atom_through_the_plan_model(capsys, monkeypatch):
    from heattrace import cli

    seen = []

    def model(node, _model=cli._model):
        seen.append(node["family"])
        return _model(node)

    monkeypatch.setattr(cli, "_model", model)
    assert run(capsys, "closed-form", "--family", "su-star:3", "--no-timestamp")[0] == 0
    assert run(capsys, "coeffs", "--space", "product(su-star:3, cp:2)", "--n-max", "3")[0] == 0
    assert seen == ["su-star", "su-star", "cp"]


@given(spec=_TREES, n_max=st.integers(1, 110), window=st.integers(0, 109))
def test_short_window_refused_exactly_when_the_report_would(spec, n_max, window):
    # With a rank-one atom the series never vanishes, so the 50-index window rule
    # moves before the build; a tree of Plancherel atoms alone keeps the late rule.
    from heattrace.growth import growth_report

    n_min = max(1, n_max - window)
    tree = parse_space(spec)
    build, _ = _plan(tree, n_max)
    try:
        _plan(tree, n_max, n_min=n_min)
        early = ""
    except SpecError as exc:
        early = str(exc)
    try:
        growth_report(build(), n_min=n_min)
        late = ""
    except ValueError as exc:
        late = str(exc)
    short = "need n_max >= n_min + 50"
    rank_one = any(atom in spec for atom in ("sphere:", "cp:", "hp:", "op2"))
    assert short not in early or short in late, (spec, early, late)
    if rank_one:
        assert (short in early) == (short in late), (spec, early, late)
    assert late or not early, (spec, early)


@pytest.mark.parametrize("spec", ["hyperbolic-odd:500", "product(hyperbolic-odd:500, su-star:5)",
                                  "product(hyperbolic-odd:1, dual(hyperbolic-odd:1))"])
def test_short_window_left_to_the_report_when_the_series_may_vanish(spec):
    # deg P may reach 500 > max(10, 1000 // 10), or kappa is 0: the series may
    # vanish, so only growth_report can tell, after the build
    _plan(parse_space(spec), 1000, n_min=980)


# Cheap Plancherel atoms: kappa = -rho_sq != 0 and deg P <= (m - r) / 2, which is 1
# for hyperbolic-odd:1 and 12 for e6-f4; products with duals reach kappa = 0.
_PLANCHEREL_ATOMS = st.sampled_from(["hyperbolic-odd:1", "hyperbolic-odd:2", "hyperbolic-odd:5",
                                     "su-star:3", "e6-f4", "complex-group:A2"])
_PLANCHEREL_DEPTH_1 = st.one_of(_PLANCHEREL_ATOMS, _combined(_PLANCHEREL_ATOMS))


@example(spec="product(hyperbolic-odd:1, dual(hyperbolic-odd:1))", n_max=60, window=20)
@example(spec="product(e6-f4, dual(e6-f4))", n_max=120, window=30)
@example(spec="scale(su-star:3, 1/3)", n_max=100, window=10)
@given(spec=st.one_of(_PLANCHEREL_DEPTH_1, _combined(_PLANCHEREL_DEPTH_1)),
       n_max=st.integers(1, 140), window=st.integers(0, 139))
def test_early_window_refusal_of_plancherel_trees_only_where_the_report_raises(
        spec, n_max, window):
    # kappa != 0 and a degree bound of at most max(10, n_max // 10) keep the series
    # from vanishing, so _plan refuses a short window up front; it must never
    # refuse one that growth_report would have classified
    from heattrace.growth import growth_report

    n_min = max(1, n_max - window)
    tree = parse_space(spec)
    build, _ = _plan(tree, n_max)
    try:
        _plan(tree, n_max, n_min=n_min)
    except SpecError as exc:
        assert "need n_max >= n_min + 50" in str(exc)
        with pytest.raises(ValueError, match="need n_max >= n_min \\+ 50"):
            growth_report(build(), n_min=n_min)


@pytest.mark.parametrize("argv, atoms", [
    (("growth", "--space", "hp:2"), 1),
    (("coeffs", "--space", "sphere:3", "--n-max", "20", "--oracle-fill"), 1),
    (("closed-form", "--family", "su-star:3"), 1),
    (("coeffs", "--space", "product(cp:2, dual(hyperbolic-odd:1))", "--n-max", "20"), 2),
], ids=["growth", "coeffs-oracle-fill", "closed-form", "coeffs-product"])
def test_each_atom_model_is_built_once(capsys, monkeypatch, argv, atoms):
    from heattrace.plancherel import PlancherelModel
    from heattrace.rank1 import SpaceModel

    built = []
    for cls in (SpaceModel, PlancherelModel):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(args)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    code, _, err = run(capsys, *argv, "--no-timestamp")
    assert code == 0, err
    assert len(built) == atoms, built


@pytest.mark.parametrize("spec, fill, module, builder, same", [
    ("product(op2, dual(op2))", (), "rank1", "_build", False),
    ("product(hyperbolic-odd:1, dual(hyperbolic-odd:1))", (), "plancherel", "closed_form", False),
    ("product(sphere:3, sphere:3)", ("--oracle-fill",), "oracle", "fit_coefficients", True),
], ids=["rank-one", "plancherel", "oracle-fill"])
def test_each_distinct_atom_is_built_once(capsys, monkeypatch, spec, fill, module, builder,
                                          same):
    # equal atoms share one series within the request, so a repeated factor
    # reaches the product as the same object
    import importlib

    from heattrace import series

    layer = importlib.import_module(f"heattrace.{module}")
    calls, operands = [], []

    def counted(*args, _build=getattr(layer, builder)):
        calls.append(args)
        return _build(*args)

    def product(a, b, _product=series.product):
        operands.append(a is b)
        return _product(a, b)

    monkeypatch.setattr(layer, builder, counted)
    monkeypatch.setattr(series, "product", product)
    code, _, err = run(capsys, "coeffs", "--space", spec, "--n-max", "20", *fill)
    assert code == 0, err
    assert len(calls) == 1, calls
    assert operands == [same]


class TestNMaxLimit:
    @pytest.mark.parametrize("command", ["coeffs", "growth"])
    def test_refused_before_any_build(self, capsys, no_build, command):
        code, out, err = run(capsys, command, "--space", "sphere:1", "--n-max", "5000")
        assert code == 2 and out == ""
        assert "--n-max-limit" in err

    def test_limit_can_be_raised(self, capsys):
        code, out, err = run(capsys, "growth", "--space", "hyperbolic-odd:1", "--n-max", "60",
                             "--n-max-limit", "59")
        assert code == 2 and "--n-max-limit" in err
        code, out, err = run(capsys, "growth", "--space", "hyperbolic-odd:1", "--n-max", "60",
                             "--n-max-limit", "60", "--n-min", "10", "--no-timestamp")
        assert code == 0, err


class TestIntegerOptions:
    @pytest.mark.parametrize("argv, message", [
        (("coeffs", "--space", "su-star:5", "--n-max", "-1"),
         "argument --n-max: must be at least 0, got -1"),
        (("growth", "--space", "sphere:2", "--n-max", "-1"),
         "argument --n-max: must be at least 0, got -1"),
        (("coeffs", "--space", "sphere:1", "--n-max", "3", "--n-max-limit", "-5"),
         "argument --n-max-limit: must be at least 0, got -5"),
        (("coeffs", "--space", "sphere:" + "1" * 5000, "--n-max", "3"),
         "sphere parameter has more than 4300 digits"),
        (("growth", "--space", "sphere:2", "--n-min", "x"),
         "argument --n-min: expected an integer, got 'x'"),
        (("coeffs", "--space", "sphere:1", "--n-max", "3", "--decimal", "4301"),
         "argument --decimal: must be in [1, 4300], got 4301"),
    ], ids=["coeffs-n-max", "growth-n-max", "n-max-limit", "long-parameter", "n-min-text",
            "decimal"])
    def test_refused_before_any_model(self, capsys, no_model, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert message in err and "n_min" not in err and "Traceback" not in err

    def test_n_max_zero_is_read(self, capsys):
        code, out, err = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "0",
                             "--n-max-limit", "0", "--no-timestamp")
        assert code == 0, err
        assert [c["n"] for c in json.loads(out)["coefficients"]] == [0]

    def test_no_integer_option_skips_the_bounded_reader(self):
        import argparse

        from heattrace.cli import _build_parser

        parser = _build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a for p in commands.choices.values() for a in p._actions]
        assert [a.dest for a in actions if a.dest == "n_max"] == ["n_max", "n_max"]
        assert not [a.option_strings for a in actions if a.type is int]


def test_plancherel_products_skip_the_full_convolution(monkeypatch):
    # every operand carries its closed form, so only the short polynomials
    # are convolved and each product is one exp_times
    from heattrace import series

    convolve = series.convolve

    def short_only(xs, ys, n_max):
        assert max(len(xs), len(ys)) <= 20, "a full series was convolved"
        return convolve(xs, ys, n_max)

    monkeypatch.setattr(series, "convolve", short_only)
    for spec in ("product(su-star:3, e6-f4, dual(hyperbolic-odd:4))",
                 "product(hyperbolic-odd:1, dual(hyperbolic-odd:1))"):
        s = evaluate(spec, 300)
        assert s.exppoly is not None and s.n_max == 300


class TestVerifyCommand:
    def test_parser_calls_no_verify_function(self, capsys, monkeypatch):
        # --suite's help text reads verify.SUITE_NAMES, so a traced job of any
        # command counts no verify call
        from heattrace import verify

        def no_call(*args):
            raise AssertionError("building the parser called into verify")

        monkeypatch.setattr(verify, "run_suite", no_call)
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0 and "corollary-1.7" in out and "kernel, all" in out
        assert verify.SUITE_NAMES[-1] == "all" and len(verify.SUITE_NAMES) == 10

    def test_corollary_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "corollary-1.7")
        assert code == 0
        assert "[PASS] corollary-1.7/product-vanishes" in out
        assert "[PASS] corollary-1.7/schoolbook-product-vanishes" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_kernel_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "kernel")
        assert code == 0

    def test_structure_and_cross_family_pass(self, capsys):
        for suite in ("structure", "cross-family", "anchors"):
            code, out, _ = run(capsys, "verify", "--suite", suite)
            assert code == 0, out

    def test_growth_laws_suite_reports_documented_failures(self, capsys):
        # Every entry passes: the sphere constant is 1/pi^2 for every M (the
        # Hurwitz-zeta form of the spectrum, see README testing notes), and
        # the Cayley plane is checked to its table depth n = 360, since its
        # band first holds at n = 311.
        code, out, _ = run(capsys, "verify", "--suite", "growth-laws")
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == 12
        assert "[PASS] growth-laws/sphere:1/band" in out
        assert "[PASS] growth-laws/sphere:2/band" in out
        assert "[PASS] growth-laws/cp:2/band" in out
        assert "[PASS] growth-laws/op2/sign" in out
        op2_band = next(line for line in out.splitlines()
                        if line.startswith("[PASS] growth-laws/op2/band"))
        assert "band holds from N=311 to 360" in op2_band


class TestExitCodes:
    def test_internal_invariant_maps_to_3(self, capsys, monkeypatch):
        from heattrace.errors import InvariantViolation

        def boom(*a, **k):
            raise InvariantViolation("synthetic")

        monkeypatch.setattr("heattrace.rank1.rank1_series", boom)
        code, _, err = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "2")
        assert code == 3
        assert "invariant" in err

    def test_argparse_usage_is_2(self, capsys):
        assert main(["coeffs"]) == 2  # missing required arguments

    @pytest.mark.parametrize("argv", [("growth", "--space", "sphere:2", "--decimal", "5"),
                                      ("verify", "--suite", "anchors", "--decimal", "7")],
                             ids=["growth", "verify"])
    def test_decimal_only_where_values_are_rendered(self, capsys, no_build, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --decimal" in err

    @pytest.mark.parametrize("spec", ["3/2", "product(3/2, sphere:1)", "dual(2)", "scale(2, 3)"])
    @pytest.mark.parametrize("argv", [("coeffs", "--n-max", "5", "--space"),
                                      ("growth", "--space"), ("closed-form", "--family")],
                             ids=["coeffs", "growth", "closed-form"])
    def test_bare_number_is_not_a_space(self, capsys, argv, spec):
        # a bare number is read only as scale's factor
        code, out, err = run(capsys, *argv, spec)
        assert code == 2 and out == ""
        assert "unknown space" in err and "Traceback" not in err


class TestOutputFile:
    """``-o PATH`` is opened only once the document is complete."""

    KEPT = b"an earlier document\n"

    @pytest.fixture
    def target(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(self.KEPT)
        return path

    @pytest.mark.parametrize("argv", [("--space", "bogus:1", "--n-max", "5"),
                                      ("--space", "sphere:1", "--n-max", "5000")],
                             ids=["bad-space", "n-max-limit"])
    def test_refused_run_leaves_the_file(self, capsys, target, argv):
        code, out, _ = run(capsys, "coeffs", *argv, "-o", str(target))
        assert code == 2 and out == ""
        assert target.read_bytes() == self.KEPT

    def test_invariant_failure_leaves_the_file(self, capsys, monkeypatch, target):
        from heattrace.errors import InvariantViolation

        def boom(*a, **k):
            raise InvariantViolation("synthetic")

        monkeypatch.setattr("heattrace.rank1.rank1_series", boom)
        code, out, _ = run(capsys, "coeffs", "--space", "sphere:1", "--n-max", "2",
                           "-o", str(target))
        assert code == 3 and out == ""
        assert target.read_bytes() == self.KEPT

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--space", "product(sphere:1, hyperbolic-odd:1)", "--n-max", "12"),
        ("coeffs", "--space", "cp:2", "--n-max", "12", "--format", "csv"),
        ("closed-form", "--family", "su-star:2"),
        ("growth", "--space", "dual(hyperbolic-odd:1)", "--n-max", "150"),
    ], ids=["coeffs-json", "coeffs-csv", "closed-form", "growth"])
    def test_file_holds_the_stdout_bytes(self, capsys, target, argv):
        code, expected, _ = run(capsys, *argv, "--no-timestamp")
        assert code == 0
        for path in (str(target), "-"):
            code, out, _ = run(capsys, *argv, "--no-timestamp", "-o", path)
            assert code == 0
        assert target.read_bytes() == expected.encode()
        assert out == expected  # "-" is stdout

    def test_failed_verification_is_still_written(self, capsys, monkeypatch, target):
        from heattrace.verify import CheckResult

        monkeypatch.setattr("heattrace.verify.run_suite",
                            lambda suite: [CheckResult("a", True, "x"), CheckResult("b", False)])
        code, out, _ = run(capsys, "verify", "--suite", "kernel", "-o", str(target))
        assert code == 1 and out == ""
        assert target.read_text() == "[PASS] a: x\n[FAIL] b: \n1/2 checks passed\n"

    def test_unopenable_path_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "closed-form", "--family", "hyperbolic-odd:1",
                             "-o", str(tmp_path / "missing" / "out.json"))
        assert code == 2 and out == ""
        assert "No such file or directory" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("coeffs", "--space", "sphere:1", "--n-max", "3"),
    ("closed-form", "--family", "hyperbolic-odd:1"),
    ("growth", "--space", "dual(hyperbolic-odd:1)", "--n-max", "150"),
], ids=["coeffs", "closed-form", "growth"])
def test_generated_at_is_utc_to_the_second(capsys, argv):
    from datetime import datetime, timedelta, timezone

    before = datetime.now(timezone.utc).replace(microsecond=0)
    code, out, _ = run(capsys, *argv)
    after = datetime.now(timezone.utc)
    assert code == 0
    stamp = datetime.fromisoformat(json.loads(out)["generated_at"])
    assert stamp.utcoffset() == timedelta(0) and stamp.microsecond == 0
    assert before <= stamp <= after
    code, out, _ = run(capsys, *argv, "--no-timestamp")
    assert code == 0 and "generated_at" not in json.loads(out)


# The modules the benchmark's tracer wraps right after ``import heattrace.cli``.
LAYERS = ("exactnum", "seedpolys", "series", "rank1", "plancherel", "growth", "oracle",
          "verify", "cli")


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath loads only when the oracle sums a trace or --decimal rounds a value;
    # dataclasses (with inspect), datetime and csv are never on the import path.
    # The baseline is what the bare interpreter has loaded, site hooks included.
    import os
    import subprocess
    import sys

    import heattrace

    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import heattrace.cli\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
        "from heattrace import heat_trace\n"
        "assert abs(float(heat_trace(2, 5, 10)) - 1.0001362) < 1e-7\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heattrace.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert not added & {"dataclasses", "inspect", "datetime", "csv", "mpmath"}, added
    assert {f"heattrace.{layer}" for layer in LAYERS} <= added

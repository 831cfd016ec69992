"""Byte-identical CLI output, pinned by hash.

Each call's stdout is pinned by the first 16 hex digits of its sha256; exit
code 0 and an empty stderr are asserted too.  The plain coxeter, forms
and verify digests were recorded with the dense column-by-column product
and the Bareiss-first inverse; the JSON coxeter and cartan digests were
recorded before coefficient strings stopped going through ``Fraction``.
Any faster matrix kernel or renderer must print exactly the same bytes.
"""

import hashlib
import random

import pytest

from qcox.cli import main
from qcox.quiverdsl import Arrow, BoundQuiver, Quiver, emit_text
from qcox.randquiver import random_acyclic_quiver


def _chain(n: int, parallel: int) -> Quiver:
    arrows = tuple(Arrow(f"a{i}_{k}", i, i + 1)
                   for i in range(n - 1) for k in range(parallel))
    return Quiver(tuple(str(i + 1) for i in range(n)), arrows)


def golden_quivers() -> dict[str, Quiver]:
    quivers = {"A30": _chain(30, 1), "A8x2": _chain(8, 2)}
    for seed in range(10):
        quivers[f"random{seed}"] = random_acyclic_quiver(random.Random(seed), 8, 14)
    return quivers


VERIFY_INPUT = """
quiver dc {
  vertices: 1, 2, 3;
  arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 3;
  relations: a*d - b*d;
}
"""


def golden_calls(directory) -> list[tuple[str, list[str]]]:
    """(label, argv) for every pinned call, writing the inputs to directory."""
    calls = []
    for name, quiver in golden_quivers().items():
        path = directory / f"{name}.qv"
        path.write_text(emit_text(BoundQuiver(quiver)))
        n = quiver.n
        x = ",".join(str(i % 5 - 2) for i in range(n))
        y = ",".join(f"{(3 * i) % 7 - 3}/{i % 3 + 1}" for i in range(n))
        for method in ("cartan", "reflections"):
            calls.append((f"coxeter-{method}-{name}",
                          ["coxeter", str(path), f"--method={method}"]))
            calls.append((f"coxeter-json-{method}-{name}",
                          ["coxeter", str(path), f"--method={method}", "--format=json"]))
        calls.append((f"cartan-json-{name}", ["cartan", str(path), "--format=json"]))
        for form in ("euler", "symmetric"):
            calls.append((f"forms-{form}-{name}",
                          ["forms", str(path), f"--{form}", f"--x={x}", f"--y={y}"]))
    path = directory / "dc.qv"
    path.write_text(VERIFY_INPUT)
    for seed in range(5):
        calls.append((f"verify-seed{seed}",
                      ["verify", str(path), "--format=json", "--random=3", f"--seed={seed}"]))
    return calls


def stdout_digest(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode()).hexdigest()[:16], captured.err


GOLDEN = {
    "cartan-json-A30": "957a015dc32cafb3",
    "cartan-json-A8x2": "5d6165621936febf",
    "cartan-json-random0": "af6e3f64f6842ee3",
    "cartan-json-random1": "610d678fc4a2c1b5",
    "cartan-json-random2": "ce0a041ab19dde33",
    "cartan-json-random3": "f4fe2b8fc45683d6",
    "cartan-json-random4": "8e3c1182f52ec1ac",
    "cartan-json-random5": "65d10d8384d94cbf",
    "cartan-json-random6": "eb72c94541a0394e",
    "cartan-json-random7": "2fcc0d1e098f3fa4",
    "cartan-json-random8": "fadfad68040100b6",
    "cartan-json-random9": "e85faef6013fbf8c",
    "coxeter-json-cartan-A30": "237dec3e263db54a",
    "coxeter-json-cartan-A8x2": "8bd557eea711f76a",
    "coxeter-json-cartan-random0": "dba915af1f72c5d3",
    "coxeter-json-cartan-random1": "2290159dd9c4aaeb",
    "coxeter-json-cartan-random2": "1656b915b8d6d039",
    "coxeter-json-cartan-random3": "274d65cb3e9f7beb",
    "coxeter-json-cartan-random4": "efbc3133c9db41e5",
    "coxeter-json-cartan-random5": "422a09ae477e41d8",
    "coxeter-json-cartan-random6": "47ba2c7e0e865456",
    "coxeter-json-cartan-random7": "c274d0ac3149238c",
    "coxeter-json-cartan-random8": "eafa92a4e513bdff",
    "coxeter-json-cartan-random9": "42c381cca90b1b93",
    "coxeter-json-reflections-A30": "237dec3e263db54a",
    "coxeter-json-reflections-A8x2": "8bd557eea711f76a",
    "coxeter-json-reflections-random0": "dba915af1f72c5d3",
    "coxeter-json-reflections-random1": "2290159dd9c4aaeb",
    "coxeter-json-reflections-random2": "1656b915b8d6d039",
    "coxeter-json-reflections-random3": "274d65cb3e9f7beb",
    "coxeter-json-reflections-random4": "efbc3133c9db41e5",
    "coxeter-json-reflections-random5": "422a09ae477e41d8",
    "coxeter-json-reflections-random6": "47ba2c7e0e865456",
    "coxeter-json-reflections-random7": "c274d0ac3149238c",
    "coxeter-json-reflections-random8": "eafa92a4e513bdff",
    "coxeter-json-reflections-random9": "42c381cca90b1b93",
    "coxeter-cartan-A30": "ab08ea4dddfde3b8",
    "coxeter-cartan-A8x2": "539f6e6904ff31fa",
    "coxeter-cartan-random0": "12cbb2726fadbf9c",
    "coxeter-cartan-random1": "4dc19fba910c997c",
    "coxeter-cartan-random2": "3710fd4ed99ac8f6",
    "coxeter-cartan-random3": "f5447461e77293c2",
    "coxeter-cartan-random4": "ebe2bd090a1923f1",
    "coxeter-cartan-random5": "af1bca7153e8cff3",
    "coxeter-cartan-random6": "5124a872f9b9075c",
    "coxeter-cartan-random7": "33d451c72bd99efc",
    "coxeter-cartan-random8": "57e30989cf8e00f0",
    "coxeter-cartan-random9": "67ef273a3897865c",
    "coxeter-reflections-A30": "ab08ea4dddfde3b8",
    "coxeter-reflections-A8x2": "539f6e6904ff31fa",
    "coxeter-reflections-random0": "12cbb2726fadbf9c",
    "coxeter-reflections-random1": "4dc19fba910c997c",
    "coxeter-reflections-random2": "3710fd4ed99ac8f6",
    "coxeter-reflections-random3": "f5447461e77293c2",
    "coxeter-reflections-random4": "ebe2bd090a1923f1",
    "coxeter-reflections-random5": "af1bca7153e8cff3",
    "coxeter-reflections-random6": "5124a872f9b9075c",
    "coxeter-reflections-random7": "33d451c72bd99efc",
    "coxeter-reflections-random8": "57e30989cf8e00f0",
    "coxeter-reflections-random9": "67ef273a3897865c",
    "forms-euler-A30": "c0dada167f2b4581",
    "forms-euler-A8x2": "65edc88ec58853d5",
    "forms-euler-random0": "675b7303691fd552",
    "forms-euler-random1": "8834b6dde325046b",
    "forms-euler-random2": "45f0b729105cc373",
    "forms-euler-random3": "8e8749995bcc681f",
    "forms-euler-random4": "d30a495e601f591d",
    "forms-euler-random5": "ef78970b1a3a47bb",
    "forms-euler-random6": "f989a7622c975a2e",
    "forms-euler-random7": "889d958ea45ca812",
    "forms-euler-random8": "363a745a789c54e7",
    "forms-euler-random9": "57984926e552b26a",
    "forms-symmetric-A30": "f91fc5524e200708",
    "forms-symmetric-A8x2": "b8db002b9293ea1e",
    "forms-symmetric-random0": "54a6b9884332b6b4",
    "forms-symmetric-random1": "c674ebc24933ec74",
    "forms-symmetric-random2": "055aa57b241fb798",
    "forms-symmetric-random3": "8834b6dde325046b",
    "forms-symmetric-random4": "8dfd51e861b3244b",
    "forms-symmetric-random5": "9667feee4a21ea33",
    "forms-symmetric-random6": "a6d09b129f585d64",
    "forms-symmetric-random7": "e7977ffd37ce96e1",
    "forms-symmetric-random8": "fb0fe2d47df79589",
    "forms-symmetric-random9": "9cfccca7f5fb4e88",
    "verify-seed0": "421b5a9f6ba98fc5",
    "verify-seed1": "faf0a1fbce3a7fc9",
    "verify-seed2": "3b46e592673bdc6b",
    "verify-seed3": "b7f0b9f7a832ab7e",
    "verify-seed4": "1f7153f7d16e2c59",
}


def test_golden_calls_are_all_pinned(tmp_path):
    assert sorted(label for label, _ in golden_calls(tmp_path)) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_stdout_is_byte_identical(label, tmp_path, capsys):
    argv = dict(golden_calls(tmp_path))[label]
    code, digest, err = stdout_digest(capsys, argv)
    assert (code, err) == (0, "")
    assert digest == GOLDEN[label]


# The monomial 3-loop algebra: its normal words of length d number the Lucas
# number L_{d+1}, and L_29 = 1,149,851 is the first past the default budget.
THREE_LOOPS_INPUT = """
quiver monomial {
  vertices: 0;
  arrows: a0: 0 -> 0; a1: 0 -> 0; a2: 0 -> 0;
  relations: a0*a0; a0*a2; a1*a0; a2*a0; a2*a2;
}
"""


@pytest.mark.parametrize("argv", [["dims"], ["cartan"], ["coxeter"],
                                  ["forms", "--x=1", "--y=1"], ["verify"]],
                         ids=lambda argv: argv[0])
def test_three_loop_monomial_algebra_exits_2_at_default_caps(argv, tmp_path, capsys):
    path = tmp_path / "monomial.qv"
    path.write_text(THREE_LOOPS_INPUT)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: DimensionBudgetExceeded: degree 28 has more than 1000000 basis elements\n")

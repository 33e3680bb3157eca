"""Command-line interface: output shapes, flags, exit codes."""

import hashlib
import json

import pytest

from wsh.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jack_json(capsys):
    code, out, _ = run(capsys, "jack", "2", "--max-degree", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 2
    rows = {tuple(r["partition"]): r["power_sum_coefficients"] for r in doc["jack_basis"]}
    assert rows[(2,)] == {"p[2]": "1/k", "p[1,1]": "1"}
    assert rows[(1, 1)] == {"p[2]": "-1", "p[1,1]": "1"}


def test_jack_text_format(capsys):
    code, out, _ = run(capsys, "jack", "1", "--max-degree", "3", "--format", "text")
    assert code == 0
    assert "Jack basis at degree 1" in out


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("jack", "5"),
            "199be979efd07964a27fbef0e0fdf95424104ed0b36ab43e22b25459e3eec75f",
        ),
        (
            ("jack", "6", "--specialize", "9/4"),
            "7f80e23f28314e5cc0af23ad1d56818c120f4a34f3c11c01fd37f59fde980275",
        ),
        (
            ("jack", "3", "--format", "text"),
            "e8d55ba46d669ab0ca2781182c39dfd38d12378dfc8c1005f8978c6a1812286b",
        ),
        # at kappa = 1 the coefficient of p[2,1] in J(2,1) vanishes and is
        # left out
        (
            ("jack", "3", "--specialize", "1"),
            "a239b5ca3bf05a691d8b0e01987f712f4e7f5841362ba696b148dd5669c9a7d7",
        ),
    ],
)
def test_jack_bytes_are_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("--series-order", "6"),
            "18fa0cddb5128b772e53ae13b64cd7796720773041767257406e014eca69355d",
        ),
        (
            ("--series-order", "6", "--preset", "omega"),
            "32399a570534e554236c241d321165dcdbe6ea6149f16a4a1dfdcc79dfe16fdf",
        ),
        (
            ("--series-order", "6", "--convention", "printed", "--preset", "fitted"),
            "4d6307a763d517f67ed6b5466d243efaf8a1805b93fcfec2662e619bb206340d",
        ),
        (
            ("--series-order", "8", "--specialize", "7/3", "--preset", "omega"),
            "ec66ab66ffda7b655c5a1442c018e522fc0aecd4033d5e3a46a1818408c936c2",
        ),
        (
            ("--series-order", "10", "--preset", "omega"),
            "632fb39f12d9a9a0e33cbbc7780c7de36257bde732bcd926e9c0d6508fdb87fc",
        ),
        (
            ("--series-order", "12"),
            "73f9b548eaec1658b2dc19ddad1f9b096d2e6295f59ceb150c495f4724b22302",
        ),
        (
            ("--series-order", "12", "--convention", "printed", "--preset", "omega"),
            "1f6ce4cc2260c5958be7fb7fa2926c36a2640ccb8bcd018b36933ed68663a05f",
        ),
        (
            ("--series-order", "12", "--specialize", "7/3", "--preset", "fitted"),
            "846033b09e290d7fd15b0a9927773e0a9223f0b123b13769df7ccbbd1c62affb",
        ),
    ],
)
def test_eseries_bytes_are_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, "eseries", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# at kappa = p/q the word images of a kernel certificate carry different
# int denominators (powers of q), which the image matrix must bring to one;
# in the small windows that exit 1 the relation span and a kernel bound
# never meet, so the certificate runs at every point (at kappa = p/q there
# is one)
PINNED_VERIFY = [
    (
        ("presentation", "--specialize", "7/3"),
        0,
        "dbd8938e0adf0c2445b7d0443a04f6c2ddc348c73d441fc88a29000ebe488f27",
    ),
    (
        ("shuffle", "--max-degree", "6", "--specialize", "9/4"),
        0,
        "d5733ef51bb8df33dab635c66a969437bda0b3decfdc31b502c64cf66aa9ebdd",
    ),
    (
        ("presentation", "--max-degree", "4"),
        1,
        "6d282b404cb80e1f89469060f23281bbd697a5c4469b88a0211262de41d13cf3",
    ),
    (
        ("shuffle", "--max-degree", "4"),
        1,
        "e9b5c27482f0e9d5bb04a2d9c6add2255761d9ecfd912c0b0cfa7fb4548d8ddb",
    ),
    (
        ("shuffle", "--max-degree", "3", "--specialize", "7/3"),
        1,
        "879926f6969074d74c2fbd9640bf39987e4fcda6449c80d73cf7c897c4252bed",
    ),
    (
        ("presentation", "--max-degree", "5", "--specialize", "7/3"),
        1,
        "132640e4278d8a896ddffb103b6e8bd24b0323c3f008f1475f6dcebb755a06bf",
    ),
    # the suites of the ops-exact benchmark workload, and one at kappa = p/q
    (
        ("positive", "--max-degree", "6"),
        0,
        "d2d1ab79f27810f842bd35ccf0c44e616edd668a67509af59d9545599605e2dd",
    ),
    (
        ("presentation", "--max-degree", "6"),
        0,
        "49979a6de9d7b28f2b21e2af526b297777cb3177f2be5923a63994e243bfdb21",
    ),
    (
        ("fock", "--max-degree", "6"),
        0,
        "3a3fd8ccfe25bba038c46561590d74a896a76b80afbdc088ca8e488f2ff533c2",
    ),
    (
        ("fock", "--max-degree", "6", "--specialize", "7/3"),
        0,
        "c5fcc5ca197764433c116bf37e27b804a9a7b0194f260111910b2a6d1ea9b2b6",
    ),
    # the lowering operators at two more values of kappa, one negative
    (
        ("fock", "--max-degree", "6", "--specialize=-3/5"),
        0,
        "78791756adfee24d8797c2218a7d04b6c27e63c840e21db9cb4cd366b70ba100",
    ),
    (
        ("fock", "--max-degree", "7", "--specialize", "1/2"),
        0,
        "200bf0d839eb5c1c51b0cff44a32a75c4e038d64591a9af77976eef15fbfe42b",
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, sha256",
    PINNED_VERIFY,
    ids=["argv%d-%s" % (i, pin[2]) for i, pin in enumerate(PINNED_VERIFY)],
)
def test_verify_bytes_are_pinned(capsys, argv, exit_code, sha256):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "2", "2", "--max-degree", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert all(row["match"] for row in doc["dimensions"])


def test_dims_at_rank_three_in_exact_mode(capsys):
    # the exact echelon of F(3, 3) at N = 8, which did not finish in minutes
    # while eliminated rows kept their kappa-content
    code, out, _ = run(capsys, "dims", "3", "3")
    assert code == 0
    rows = json.loads(out)["dimensions"]
    assert [row["order"] for row in rows] == [0, 1, 2, 3]
    assert [row["graded_dimension"] for row in rows] == [3, 4, 6, 8]
    assert all(row["match"] for row in rows)


def test_eseries_conventions(capsys):
    code, out, _ = run(capsys, "eseries", "--series-order", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["convention"] == "power"
    assert doc["coefficients"]["E0"] == {"c0": "1"}

    code, out, _ = run(
        capsys, "eseries", "--series-order", "3", "--convention", "printed",
        "--preset", "omega",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["preset"] == "omega"


def test_verify_small_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "positive",
        "--max-degree", "5", "--kmax", "3", "--lmax", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["config"]["N"] == 5
    # verify takes no --series-order; the report still echoes the default
    assert doc["config"]["series_order"] == 6
    for check in doc["checks"]:
        assert set(check) >= {"id", "status", "window"}
    ids = [c["id"] for c in doc["checks"]]
    assert ids == sorted(ids)


def test_verify_specialized(capsys):
    code, out, _ = run(
        capsys, "verify", "positive",
        "--max-degree", "5", "--kmax", "3", "--lmax", "3",
        "--specialize", "7/3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["config"]["mode"] == "specialized(7/3)"


def test_verify_deterministic(capsys):
    argv = ["verify", "positive", "--max-degree", "5", "--kmax", "3", "--lmax", "3"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_bad_input_exit_code_two(capsys):
    code, _, err = run(capsys, "jack", "9", "--max-degree", "4")
    assert code == 2
    assert err.strip()

    code, _, err = run(capsys, "verify", "positive", "--specialize", "0")
    assert code == 2

    code, _, err = run(capsys, "dims", "0", "1")
    assert code == 2


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("jack", "3", "--specialize=-1"),
        ("verify", "positive", "--max-degree", "4", "--specialize=-1"),
        ("eseries", "--specialize", "1"),
        ("verify", "fock", "--max-degree", "5", "--specialize", "1"),
        ("verify", "fock", "--max-degree", "4", "--specialize=-1"),
    ],
)
def test_pole_of_kappa_is_a_usage_error(capsys, argv):
    # kappa = -1 makes a hook factor of the Jack norm vanish (the jack
    # command, the spectrum checks of verify positive and the Fock
    # eigenvalues read the Jack basis); kappa = 1 makes the central
    # series' divisor xi = kappa - 1 vanish
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if argv[-1] == "1":
        assert "kappa = 1 " in err


def test_presentation_at_a_pole_of_the_jack_basis_passes(capsys):
    # the presentation suite reads no Jack basis: its D_{0,l} come from the
    # Lax moments, whose only divisor is l(l+1) kappa
    code, out, err = run(
        capsys, "verify", "presentation", "--max-degree", "6", "--specialize=-1"
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["config"]["mode"] == "specialized(-1)"


def test_jobs_flag_is_gone(capsys):
    # checks run one at a time; the flag is rejected as unknown
    with pytest.raises(SystemExit) as exc:
        main(["verify", "positive", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("jack", "3", "--kmax", "3"),
        ("jack", "3", "--lmax", "3"),
        ("jack", "3", "--series-order", "3"),
        ("eseries", "--max-degree", "4"),
        ("eseries", "--kmax", "3"),
        ("eseries", "--lmax", "3"),
        ("dims", "2", "2", "--kmax", "3"),
        ("dims", "2", "2", "--lmax", "3"),
        ("dims", "2", "2", "--series-order", "3"),
        ("verify", "positive", "--series-order", "3"),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("n", [3, 4])
def test_fock_fit_below_its_test_partitions_is_skipped(capsys, n):
    # the fit is tested on partitions of sizes 3 and 4
    code, out, err = run(capsys, "verify", "fock", "--max-degree", str(n))
    assert code == 0, err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    fit = checks["fock_fit_unique_convention(hmax=4)"]
    assert fit["status"] == "skipped"
    assert fit["detail"] == "degree %d outside operator window" % n
    assert not any(cid.startswith("fock_fit(") for cid in checks)


@pytest.mark.parametrize(
    "argv",
    [
        ("jack", "3", "--specialize", "1/0"),
        ("verify", "positive", "--specialize", "1/0"),
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "argument --specialize: invalid rational value: '1/0'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("jack", "3"),
        ("eseries", "--series-order", "3"),
        ("verify", "positive", "--max-degree", "4"),
    ],
)
def test_a_negative_fraction_reaches_specialize_detached(capsys, argv):
    # argparse reads -3/5 as a flag unless it is attached with "="
    detached = run(capsys, *argv, "--specialize", "-3/5")
    attached = run(capsys, *argv, "--specialize=-3/5")
    assert detached == attached
    assert detached[0] in (0, 1) and detached[1]


def test_a_skipped_relation_check_has_its_pass_id(capsys):
    # at --max-degree 3 some kl_identity and recursion checks are skipped;
    # they keep the ids they pass under at --max-degree 6
    checks = {}
    for n in (3, 6):
        _, out, _ = run(capsys, "verify", "positive", "--max-degree", str(n))
        checks[n] = json.loads(out)["checks"]
    assert sorted(c["id"] for c in checks[3]) == sorted(c["id"] for c in checks[6])
    skipped = {c["id"] for c in checks[3] if c["status"] == "skipped"}
    assert {"kl_identity(1,3)", "recursion(5)"} <= skipped


def test_rank3_check_below_its_window_is_skipped(capsys):
    # at --max-degree 2 the rank-3 words t1[a]t1[b]t1[c], a+b+c <= 0, have
    # no source degree; the suite still fails on its rank-2 comparison
    code, out, err = run(capsys, "verify", "shuffle", "--max-degree", "2")
    assert code == 1 and err == ""
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    for what in ("inclusion", "dims"):
        rank3 = checks["shuffle_rank3_kernel_%s(d=0)" % what]
        assert rank3["status"] == "skipped"
        assert rank3["detail"] == "truncation too small: empty validity window"
    assert checks["shuffle_rank2_kernel_dims(K=4)"]["status"] == "fail"


@pytest.mark.parametrize("suite", ["presentation", "all"])
def test_kmax_below_the_seeded_normal_order_words_is_a_usage_error(capsys, suite):
    # the seeded words of the normal-order soundness check rewrite to an
    # index past K = 3, which Config.validate accepts
    code, out, err = run(capsys, "verify", suite, "--kmax", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: index overflow; raise K: ")
    assert "past the bound K = 3 (--kmax)" in err
    assert err.count("\n") == 1 and "Traceback" not in err

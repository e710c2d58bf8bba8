"""Operation lists are byte-identical per seed and keep their mix across seeds."""

from collections import Counter

from perfbench import workloads


def _mix(name, ops):
    if name == "cli-compute":  # repeats may pick any earlier request
        return Counter((op["kind"],) + ((op["quantity"], op["digits"])
                                        if op["kind"] == "fresh" else ())
                       for op in ops)
    if name == "trig-sums":
        return Counter((op["family"], op["mode"], op["xclass"]) for op in ops)
    return Counter(s for op in ops for s in op["suites"])


def test_same_seed_gives_identical_list():
    for name, gen in workloads.GENERATORS.items():
        a, b = gen(7, 30), gen(7, 30)
        assert a == b
        assert workloads.op_hash(a) == workloads.op_hash(b)


def test_other_seed_changes_inputs_but_keeps_proportions():
    for name, gen in workloads.GENERATORS.items():
        a, b = gen(1, 30), gen(2, 30)
        assert workloads.op_hash(a) != workloads.op_hash(b)
        assert _mix(name, a) == _mix(name, b)


def test_cli_repeats_follow_their_originals():
    for seed in range(20):
        ops = workloads.cli_compute_ops(seed, 30)
        kinds = Counter(op["kind"] for op in ops)
        assert kinds["repeat"] + kinds["respelled"] == len(ops) // 4
        for i, op in enumerate(ops):
            if op["kind"] != "fresh":
                first = next(j for j, o in enumerate(ops)
                             if o["kind"] == "fresh" and o["params"] == op["params"]
                             and o["quantity"] == op["quantity"])
                assert first < i
        respelled = [op for op in ops if op["kind"] == "respelled"]
        assert all("--method" in op["argv"] for op in respelled)


def test_zeta_arguments_are_exact_in_binary():
    from fractions import Fraction
    for seed in range(20):
        for op in workloads.cli_compute_ops(seed, 30):
            if "s" in op["params"]:
                q = Fraction(op["params"]["s"]).denominator
                assert q & (q - 1) == 0 and Fraction(op["params"]["s"]) != 1

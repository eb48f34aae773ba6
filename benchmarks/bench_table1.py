"""Benchmark: regenerate the paper's Table 1 (detected faults).

Expected shape (paper Section 4): for every circuit,
``det(T0) <= det(tau_seq) <= det(final)``, with ``tau_seq`` detecting a
large share of the faults and the final set completing the detectable
coverage.
"""

from repro.experiments import tables


def test_table1(benchmark, suite_runs):
    table = benchmark(tables.table1, suite_runs)
    print()
    print(table.render())
    for row in table.rows:
        circuit, ff, ctests, flts, untst, t0, scan, final = row
        assert t0 <= scan <= final <= flts, circuit
        # Proven-untestable faults are never detected.
        assert final <= flts - untst, circuit
        # tau_seq detects "a large percentage of the target faults".
        assert scan >= 0.5 * flts, circuit

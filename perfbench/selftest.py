"""Self-test of the benchmark on a tiny corpus.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the exhaustive reference agrees with the package's own
``linear_scan_range`` / ``linear_scan_knn`` oracles, that the answer
checks reject wrong answers, and that every workload, untraced and
traced, emits every metric ``BENCHMARK.json`` names with no failed
operation and with search counters that repeat exactly.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import run

fx = run.import_program()

import inputs  # noqa: E402
import workloads  # noqa: E402
from reference import Reference, knn_mismatch, range_mismatch, sorted_triples  # noqa: E402

NN = workloads.NN
COARSE = "TSANILVM,KRDEQ,WFYHGPC"  # 3^9 bins for a few hundred fragments


def tiny_corpus() -> inputs.Corpus:
    return inputs.protein_corpus(n_families=4, members_per_family=4, min_len=40,
                                 max_len=70, x_rate=0.03, seed=7)


def check_reference(corpus: inputs.Corpus) -> None:
    matrix = fx.load_builtin_matrix(workloads.MATRIX)
    d = fx.distance_from_score(matrix)
    letters = matrix.alphabet.letters
    db = fx.parse_fasta(corpus.fasta)
    rng = np.random.default_rng(5)
    for suffix_mode, lengths in ((False, [9]), (True, range(6, 13))):
        ds = fx.extract_fragments(db, 9, suffix_mode=suffix_mode)
        ref = Reference(corpus.sequences, letters, d.values, 9, suffix_mode,
                        12 if suffix_mode else 9)
        assert ref.n == ds.n, (suffix_mode, ref.n, ds.n)
        for length in lengths:
            for _ in range(3):
                text = "".join(rng.choice(list(inputs.AMINO_ACIDS), size=length))
                codes = np.array([letters.index(c) for c in text])
                f = fx.distance_query(d, text)
                answer = ref.answer(codes, NN)
                values = ref.values(codes)
                for radius in (answer.radius - 3, answer.radius, answer.radius + 2):
                    oracle = [(r.seq_id, r.offset, v) for r, v in fx.linear_scan_range(ds, f, radius)]
                    rows = np.flatnonzero(values <= radius)
                    mine = np.stack([ref.sids[rows], ref.offs[rows], values[rows]], axis=1)
                    assert np.array_equal(sorted_triples(oracle), mine), (text, radius)
                oracle = [(r.seq_id, r.offset, v) for r, v in fx.linear_scan_range(ds, f, answer.radius)]
                assert range_mismatch(oracle, answer) is None
                assert range_mismatch(oracle[1:], answer) is not None
                if length == 9:
                    knn = [(r.seq_id, r.offset, v) for r, v in fx.linear_scan_knn(ds, f, NN)]
                    assert knn_mismatch(ref, codes, NN, knn, answer) is None, text
                    sid, off, val = knn[-1]
                    assert knn_mismatch(ref, codes, NN, knn[:-1] + [(sid, off, val - 1)],
                                        answer) is not None
                    assert knn_mismatch(ref, codes, NN, knn[:-1] + [knn[0]], answer) is not None


def check_workloads(corpus: inputs.Corpus) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        counters = []
        for trace in (False, True, True):
            result = run.run_workload(name, corpus, seed=11, seconds=0.5, trace=trace,
                                      partition=COARSE)
            declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            assert set(result.metrics) == declared, (name, trace, declared ^ set(result.metrics))
            assert result.attempted > 0 and result.failed == 0, (name, trace, result.errors[:3])
            assert all(math.isfinite(v) for v in result.metrics.values()), (name, trace)
            if trace:
                counters.append({k: v for k, v in result.metrics.items()
                                 if k.startswith("search.") and "_ms" not in k})
        assert counters[0] == counters[1], f"{name}: search counters differ between runs"
        print(f"selftest: {name} ok")


def main() -> int:
    corpus = tiny_corpus()
    check_reference(corpus)
    print("selftest: reference agrees with linear_scan_range / linear_scan_knn")
    check_workloads(corpus)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

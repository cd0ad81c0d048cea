"""Answers and counters of range and k-NN searches on the synthetic corpus.

Each case is a query on the corpus indexes with its hits (as a digest) and
its five ``SearchStats`` counters:

* range search on the fixed-mode index at each of the 40 length-9
  benchmark queries' 100-NN radius;
* k-NN at k = 10 and k = 100 for the same queries, hits in their order;
* range search on the suffix-mode index for benchmark queries of lengths
  6 to 12, 6 of each, at each query's 100-NN radius;
* k-NN at k = 10 and k = 100 on the suffix-mode index for those of
  lengths 6 to 8, shorter than its fragments, hits in their order.

``test_corpus_answers.py`` replays the committed record
``data/corpus_answers.json`` and requires every case to come out the same.
Writing the record needs the benchmark's query generators; run from the
root of a checkout:

    PYTHONPATH=src:. python tests/corpus_answers.py tests/data/corpus_answers.json
"""

from __future__ import annotations

import hashlib
import json
import sys

import fsindex as fx

from _corpus import protein_corpus_fasta

PARTITION = "TSAN,ILVM,KR,DEQ,WFYH,GPC"
COUNTERS = ("nodes_visited", "bins_scanned", "fragments_scanned", "residues_scanned", "hits")


def corpus_indexes() -> dict[str, fx.FSIndex]:
    db = fx.parse_fasta(protein_corpus_fasta())
    scheme = fx.parse_partition(PARTITION, fx.STANDARD_ALPHABET, 9)
    return {
        "fixed": fx.build(fx.extract_fragments(db, 9), scheme),
        "suffix": fx.build(fx.extract_fragments(db, 9, suffix_mode=True), scheme),
    }


def distance_matrix() -> fx.DistanceMatrix:
    return fx.distance_from_score(fx.load_builtin_matrix("BLOSUM62"))


def run_case(indexes, d, case: dict) -> tuple[fx.HitList, fx.SearchStats]:
    """The case's search, run by this code."""
    q = fx.normalize(fx.distance_query(d, case["query"]))
    index = indexes[case["index"]]
    if case["search"] == "knn":
        return fx.knn_search(index, q, case["k"])
    return fx.range_search(index, q, case["radius"])


def answer(indexes, d, case: dict) -> dict:
    """The case with its hits' digest and counters, from this code."""
    hits, stats = run_case(indexes, d, case)
    rows = [(r.seq_id, r.offset, v) for r, v in hits]
    if case["search"] != "knn":
        rows.sort()
    digest = hashlib.blake2b(json.dumps(rows).encode(), digest_size=16).hexdigest()
    return {**case, "hits": digest, "counters": [getattr(stats, c) for c in COUNTERS]}


def cases(indexes, d) -> list[dict]:
    from perfbench.inputs import fixed_queries, mixed_length_queries

    out = []
    for text in fixed_queries(271828, 40, 9):
        q = fx.normalize(fx.distance_query(d, text))
        radius = max(fx.knn_search(indexes["fixed"], q, 100)[0].values())
        out.append({"index": "fixed", "search": "range", "query": text, "radius": radius})
        out += [{"index": "fixed", "search": "knn", "query": text, "k": k} for k in (10, 100)]
    suffix_ds = indexes["suffix"].dataset
    mixed = mixed_length_queries(271828, 42, 6, 12)
    for text in mixed:
        f = fx.distance_query(d, text)
        radius = max(v for _, v in fx.linear_scan_knn(suffix_ds, f, 100)) - fx.normalize(f).shift
        out.append({"index": "suffix", "search": "range", "query": text, "radius": radius})
    out += [
        {"index": "suffix", "search": "knn", "query": text, "k": k}
        for text in mixed if len(text) <= 8 for k in (10, 100)
    ]
    return out


if __name__ == "__main__":
    indexes, d = corpus_indexes(), distance_matrix()
    record = [answer(indexes, d, case) for case in cases(indexes, d)]
    with open(sys.argv[1], "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(case) for case in record) + "\n]\n")

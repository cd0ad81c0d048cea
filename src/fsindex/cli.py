"""Command-line interface: build, search, bench, verify-matrix, stats.

Exit codes: 0 success, 1 usage or input error, 2 failed cross-check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .alphabet import (
    Alphabet,
    STANDARD_ALPHABET,
    builtin_matrix_names,
    check_quasi_metric,
    distance_from_score,
    load_builtin_matrix,
    parse_partition,
    parse_score_matrix,
)
from .core import _lap, build, load, read_index_header
from .ingest import dataset_manifest, extract_fragments, parse_fasta, sample_queries
from .query import (
    distance_query,
    normalize,
    parse_pssm,
    similarity_threshold_to_radius,
)
from .search import knn_search, range_search


def _load_matrix(spec: str, alphabet: Alphabet):
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_score_matrix(fh.read(), alphabet)
    try:
        return load_builtin_matrix(spec, alphabet)
    except KeyError:
        raise ValueError(
            f"{spec!r} is neither a matrix file nor one of the bundled matrices "
            f"({', '.join(builtin_matrix_names())})"
        ) from None


def _read_fasta(path: str):
    with open(path) as fh:
        return parse_fasta(fh)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_build(args) -> int:
    alphabet = Alphabet(args.alphabet) if args.alphabet else STANDARD_ALPHABET
    _load_matrix(args.matrix, alphabet)  # validates the matrix/alphabet pairing
    scheme = parse_partition(args.partition, alphabet, args.length)
    phases: dict = {}  # parse, extract, build (its own phases within it), save
    t = time.perf_counter()
    db = _read_fasta(args.fasta)
    t = _lap(phases, "parse", t)
    dataset = extract_fragments(
        db, args.length, alphabet=alphabet,
        suffix_mode=args.suffix_mode, floor=args.floor,
    )
    t = _lap(phases, "extract", t)
    index = build(dataset, scheme, phases)
    t = _lap(phases, "build", t)
    size = index.save(args.out)
    _lap(phases, "save", t)
    manifest = dataset_manifest(dataset)
    manifest.update(
        keys=index.n_keys,
        bins=index.n_bins,
        empty_bins=index.empty_bins(),
        index_bytes=size,
        out=args.out,
        phases_ms=phases,
    )
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _open_index(args):
    """The index and the wall times (ms) of its cold phases: FASTA parse,
    load, then load's own phases, each within "load" (``core.load``)."""
    phases, load_phases = {}, {}
    t = time.perf_counter()
    db = _read_fasta(args.fasta)
    t = _lap(phases, "parse", t)
    index = load(args.index, db, load_phases)
    _lap(phases, "load", t)
    return index, phases | {f"load.{name}": ms for name, ms in load_phases.items()}


def _spot_audit(index, hits, f, shift: int, sample: int = 5) -> None:
    """Re-evaluate the query on a few reported fragments; a mismatch means
    the reported de-normalized values are wrong and must abort the run."""
    for seq_id, offset, value in hits.triples(sample):
        direct = f.evaluate(index.dataset.fragment_text(seq_id, offset, f.m))
        if direct != value + shift:
            raise AssertionError(
                f"reported value {value + shift} != direct evaluation {direct} "
                f"at seq_id {seq_id}, offset {offset}"
            )


_HIT_COLUMNS = ("sequence", "offset", "fragment", "value", "rank")


def _format_hits(index, hits, shift: int, fmt: str, out: str | None, stats,
                 phases_ms: dict, query_len: int | None = None) -> None:
    ds, width = index.dataset, query_len or index.m
    rows = [
        dict(zip(_HIT_COLUMNS, (
            ds.db.identifier(s), o, ds.fragment_text(s, o, width), v + shift, rank)))
        for rank, (s, o, v) in enumerate(hits.sorted_by_value().triples(), start=1)
    ]
    stats_obj = asdict(stats)
    if fmt == "json":
        _emit(json.dumps({"hits": rows, "stats": stats_obj, "phases_ms": phases_ms}, indent=2), out)
    else:
        lines = ["\t".join(_HIT_COLUMNS)] + ["\t".join(map(str, r.values())) for r in rows]
        lines.append("# " + json.dumps(stats_obj, sort_keys=True))
        _emit("\n".join(lines), out)


def cmd_search(args) -> int:
    index, phases_ms = _open_index(args)
    started = time.perf_counter()
    matrix = _load_matrix(args.matrix, index.alphabet)
    if args.pssm:
        with open(args.pssm) as fh:
            f = parse_pssm(fh.read(), index.alphabet, orientation=args.pssm_orientation)
        fragment = None
    else:
        fragment = args.query
        bad = [c for c in fragment if c not in index.alphabet]
        if bad:
            raise ValueError(f"query letter {bad[0]!r} not in alphabet")
        f = distance_query(distance_from_score(matrix), fragment)
    q = normalize(f)

    if args.k is not None:
        hits, stats = knn_search(index, q, args.k, all_ties=args.all_ties)
    else:
        if args.similarity_threshold is not None:
            if fragment is None:
                raise ValueError("--similarity-threshold needs a literal query")
            radius = similarity_threshold_to_radius(
                matrix, fragment, args.similarity_threshold
            )
        else:
            radius = args.radius
        hits, stats = range_search(index, q, radius - q.shift)
    _spot_audit(index, hits, f, q.shift)
    _lap(phases_ms, "search", started)
    _format_hits(index, hits, q.shift, args.format, args.out, stats, phases_ms, query_len=f.m)
    return 0


def cmd_bench(args) -> int:
    # imported here: a cold ``search`` needs neither the harness nor ``statistics``
    from .bench import OracleMismatch, run_bench

    index, _ = _open_index(args)
    matrix = _load_matrix(args.matrix, index.alphabet)
    d = distance_from_score(matrix)
    if args.query_file:
        with open(args.query_file) as fh:
            queries = [line.strip() for line in fh if line.strip()]
    elif args.query_mode == "windows":
        queries = sample_queries(
            index.m, args.queries, args.seed,
            alphabet=index.alphabet, db=index.dataset.db,
        )
    else:
        freqs = None
        if args.frequencies:
            with open(args.frequencies) as fh:
                freqs = [float(tok) for tok in fh.read().split()]
        queries = sample_queries(
            index.m, args.queries, args.seed,
            alphabet=index.alphabet, frequencies=freqs,
        )
    k_list = [int(k) for k in args.k_list.split(",")] if args.k_list else None
    try:
        report = run_bench(
            index,
            queries,
            d,
            k_list=k_list,
            radius=args.radius,
            check_oracle=args.oracle,
            include_flat=args.baseline_flat,
        )
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 2
    report.file_bytes = os.path.getsize(args.index)
    _emit("\n".join(report.tsv_lines()), args.out)
    _emit(report.to_json(), args.out + ".json" if args.out else None)
    return 0


def cmd_verify_matrix(args) -> int:
    alphabet = Alphabet(args.alphabet) if args.alphabet else STANDARD_ALPHABET
    matrix = _load_matrix(args.matrix, alphabet)
    lines = [f"matrix: {args.matrix}", f"alphabet: {alphabet.letters}"]
    lines.append(f"symmetric: {'yes' if matrix.is_symmetric else 'no'}")
    try:
        d = distance_from_score(matrix)
    except ValueError as exc:
        lines.append(f"distance transform: failed ({exc})")
        lines.append("quasi-metric: no")
        print("\n".join(lines))
        return 0
    report = check_quasi_metric(d)
    lines.append(f"separation: {'ok' if report.separation_ok else 'violated'}")
    lines.append(f"triangle violations: {len(report.triangle_violations)}")
    for a, b, c, slack in report.triangle_violations[:10]:
        lines.append(
            f"  D({a},{c}) > D({a},{b}) + D({b},{c}) by {slack}"
        )
    lines.append(f"quasi-metric: {'yes' if report.is_quasi_metric else 'no'}")
    if matrix.is_symmetric:
        diag = np.diagonal(matrix.values)
        co = (d.values + diag[None, :] == d.values.T + diag[:, None]).all()
        lines.append(f"co-weightable (weight = self-score): {'yes' if co else 'no'}")
    print("\n".join(lines))
    return 0


def cmd_stats(args) -> int:
    print(json.dumps(read_index_header(args.index), indent=2, sort_keys=True))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsindex",
        description="Similarity search over fixed-length protein fragments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and save an index")
    p.add_argument("--fasta", required=True)
    p.add_argument("--matrix", required=True, help="matrix file or bundled name")
    p.add_argument("--partition", required=True, help="e.g. 'TSAN,ILVM,KR,DEQ,WFYH,GPC'")
    p.add_argument("-m", "--length", type=int, required=True)
    p.add_argument("--suffix-mode", action="store_true")
    p.add_argument("--floor", type=int, default=1, help="shortest suffix kept (suffix mode)")
    p.add_argument("--alphabet", help="override the standard 20-letter alphabet")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="query a saved index")
    p.add_argument("--index", required=True)
    p.add_argument("--fasta", required=True, help="the FASTA the index was built from")
    p.add_argument("--matrix", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--query", help="literal query fragment")
    src.add_argument("--pssm", help="position-specific table file")
    p.add_argument("--pssm-orientation", choices=["cost", "score"], default="cost")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--radius", type=int, help="range search radius")
    mode.add_argument("--k", type=int,
                      help="k nearest neighbours of a length-m query (1 to m in suffix mode)")
    mode.add_argument(
        "--similarity-threshold", type=int,
        help="similarity cutoff t; converted to radius self-score - t",
    )
    p.add_argument("--all-ties", action="store_true")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="run the statistics harness")
    p.add_argument("--index", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--query-mode", choices=["iid", "windows"], default="iid")
    p.add_argument("--query-file", help="file with one query fragment per line")
    p.add_argument("--frequencies", help="file with one background frequency per letter")
    kr = p.add_mutually_exclusive_group(required=True)
    kr.add_argument("--k-list", help="comma-separated k values (kNN-then-range protocol)")
    kr.add_argument("--radius", type=int, help="fixed range radius instead")
    p.add_argument("--oracle", action="store_true", help="cross-check hits per query")
    p.add_argument("--baseline-flat", action="store_true")
    p.add_argument("--out", help="TSV path; aggregates go to <out>.json")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify-matrix", help="audit a score matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alphabet")
    p.set_defaults(func=cmd_verify_matrix)

    p = sub.add_parser("stats", help="describe a saved index")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

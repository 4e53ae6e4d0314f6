"""The group-file reader: its bulk path against the per-line ``csv`` path.

``groupfile._iter_groups`` reads one line at a time with ``csv`` and is the one
definition of a valid line and of every message.  ``groupfile._pieces`` reads
a batch of lines at a time and hands a batch it cannot judge to
``_iter_groups``, so the two must give the same groups and the same first
error, on whole files and on the ranges of a split.
"""

import contextlib
import csv
import io
import tracemalloc
from itertools import chain, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from heavycomb import cli, combine as combine_module, groupfile
from heavycomb.errors import DomainError, ShapeError, ValidationError

_IDS = ["g1", "g2", " g3 ", "\tg4", "gène", "Ω5"]
_ODD_IDS = ["", '"q"', '"a,b"', '"x"y', '"a\nb"', '"a\r\nb,"', '"open', "a\x00b", "\udcff",
            "é\udcfe"]
_TOKENS = ["0.5", " 0.25", "0.125\t", "\t1 ", "1", "1.0", "5e-324", "1e-300", "0.999"]
_ODD_TOKENS = ["0", "1.0000001", "nan", "inf", "-0.0", "1_0", "0_5", "abc", "", '"0.5"',
               "0.\x005", "\udcff"]
_LIMIT = 40  # csv's field limit while a case runs, so that a line can pass it


@hst.composite
def _files(draw):
    """The text of a group file: mostly plain lines, with a few odd ones."""
    lines = [[draw(hst.sampled_from(_IDS))]
             + draw(hst.lists(hst.sampled_from(_TOKENS), min_size=1, max_size=5))
             for _ in range(draw(hst.integers(0, 30)))]
    for _ in range(draw(hst.integers(0, 2)) if lines else 0):
        line = lines[draw(hst.integers(0, len(lines) - 1))]
        kind = draw(hst.sampled_from(["id", "token", "blank", "no p-values", "long line",
                                      "long field"]))
        if kind == "id":
            line[0] = draw(hst.sampled_from(_ODD_IDS))
        elif kind == "token":
            odd = draw(hst.sampled_from(_ODD_TOKENS))
            if len(line) > 1:
                line[draw(hst.integers(1, len(line) - 1))] = odd
            else:
                line.append(odd)
        elif kind == "blank":
            line[:] = [draw(hst.sampled_from(["", "  ", "\t"]))]
        elif kind == "no p-values":
            del line[1:]
        elif kind == "long line":  # past the field limit as a line, not as a field
            line[1:] = ["0.5"] * (_LIMIT // 4 + 1)
        else:
            line[-1] = "0." + "1" * _LIMIT
    header = draw(hst.sampled_from([None, "group_id,p", "id,p1,p2", '"group_id","p"']))
    lines = ([header] if header else []) + [",".join(line) for line in lines]
    ends = [draw(hst.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(hst.booleans()):
        ends[-1] = ""
    return "".join(chain.from_iterable(zip(lines, ends)))


def _drain(items):
    """The items of ``items`` up to its error, and the error (or None)."""
    out = []
    try:
        for item in items:
            out.append(item)
    except ValidationError as exc:
        return out, exc
    return out, None


def _rows_of(pieces):
    """The ``(line_no, group_id, values)`` rows of ``_pieces``' pieces."""
    for line_no, ids, lengths, values in pieces:
        ends = np.cumsum(lengths)
        for i, (gid, end, n) in enumerate(zip(ids, ends.tolist(), lengths)):
            yield line_no + i, gid, list(map(float, values[end - n:end]))


def _compute(bad_n, bad_p):
    """A file command's compute: a row ``(id, values)`` a group.  Its blocks of
    ``bad_n`` p-values fail, as a ``--weights`` count does, and so does a block
    whose first group holds ``bad_p``, which the chunks decide."""
    def compute(block, ids):
        if block.shape[1] == bad_n:
            raise ShapeError(f"expected {bad_n + 1} p-values, got {bad_n}")
        if (block[0] == bad_p).any():
            raise DomainError(f"a block holds {bad_p!r}")
        return zip(zip(ids, block.tolist()))
    return compute


def _reference(rows, error, bad_n, bad_p):
    """What ``_batched_rows`` must give, from the per-line reader's rows and
    error: chunks of whole groups that end at the group that brings them to
    ``combine._CHUNK`` values, each length's block failing as ``_compute``'s."""
    out, start, compute = [], 0, _compute(bad_n, bad_p)
    while start < len(rows):
        end, size = start, 0
        while end < len(rows) and size < combine_module._CHUNK:
            size, end = size + len(rows[end][2]), end + 1
        chunk, firsts = rows[start:end], {}
        for i, (_, _, values) in enumerate(chunk):
            firsts.setdefault(len(values), i)
        for n, i in firsts.items():  # in the order of their first group
            try:
                compute(np.array([v for _, _, v in chunk if len(v) == n]), [])
            except (DomainError, ShapeError) as exc:
                out += [(gid, v) for _, gid, v in chunk[:i]]
                return out, ValidationError(f"line {chunk[i][0]}: {exc}")
        out += [(gid, v) for _, gid, v in chunk]
        start = end
    return out, error


def _same(got, want):
    (rows, error), (want_rows, want_error) = got, want
    assert rows == want_rows
    assert (type(error), str(error)) == (type(want_error), str(want_error))


def _check_range(fh, first, lines, *bad):
    start = fh.tell()
    per_line = _drain(groupfile._iter_groups(
        fh if lines is None else islice(fh, lines), fh.encoding, first))
    fh.seek(start)
    _same(_drain(_rows_of(groupfile._pieces(fh, first, lines))), per_line)
    fh.seek(start)
    _same(_drain(chain.from_iterable(groupfile._batched_rows(fh, _compute(*bad), first, lines))),
          _reference(*per_line, *bad))


@contextlib.contextmanager
def _field_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@settings(max_examples=400, deadline=None)
@given(text=_files(), chunk=hst.integers(1, 12), batch=hst.integers(1, 80),
       bad_n=hst.integers(1, 7), bad_p=hst.sampled_from([0.999, 5e-324, 2.0]))
def test_bulk_reader_matches_the_per_line_reader(tmp_path_factory, text, chunk, batch, bad_n,
                                                 bad_p):
    path = tmp_path_factory.mktemp("groups") / "in.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with mock.patch.object(combine_module, "_CHUNK", chunk), \
            mock.patch.object(groupfile, "_BATCH", batch), _field_limit(_LIMIT):
        with cli._open_input(path) as fh:
            _check_range(fh, 1, None, bad_n, bad_p)
            fh.seek(0)
            ranges = groupfile._ranges(fh, 3) or []
        for start, first, lines in ranges:  # each as a split's process reads it
            with open(path, "rb") as raw:
                raw.seek(start)
                with io.TextIOWrapper(raw, fh.encoding, "surrogateescape", newline="") as part:
                    _check_range(part, first, lines, bad_n, bad_p)


@pytest.mark.parametrize("quote", ["", '"'], ids=["bulk", "csv"])
def test_reader_working_set(tmp_path, quote):
    # 2^18 p-values in groups of 2 to 20; quoted ids send every line through
    # csv.  A chunk's values are held twice at most (its pieces, then its
    # blocks: 2 x 128 KiB), with its ids and one batch of lines; a reader that
    # held a chunk's text as tokens would peak at several MB
    rng = np.random.default_rng(18)
    lines, total = [], 0
    while total < 1 << 18:
        n = min(int(rng.integers(2, 21)), (1 << 18) - total)
        values = ",".join(map(repr, (1.0 - rng.random(n)).tolist()))
        lines.append(f"{quote}g{len(lines):06d}{quote},{values}")
        total += n
    path = tmp_path / "big.csv"
    path.write_text("group_id,p\n" + "\n".join(lines) + "\n")
    bound = 5 * 8 * combine_module._CHUNK
    with cli._open_input(path) as fh:
        tracemalloc.start()
        try:
            groups = sum(1 for _ in chain.from_iterable(
                groupfile._batched_rows(fh, lambda block, ids: zip(ids), 1, None)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert groups == len(lines)
    assert peak < bound, f"peak {peak} bytes"

"""Group files: the ragged CSV input (``group_id,p1,p2,...``) of the file commands.

``_pieces`` reads a batch of lines at a time, in bulk where it can and else
through ``_iter_groups``, which reads one line at a time with ``csv`` and is
the one definition of a valid line and of every message; so both give the same
groups, errors and bytes.  ``_batched_rows`` computes a chunk of about
``combine._CHUNK`` p-values at a time.  ``_rows`` spreads a file across forked
processes, each of which reads, computes and formats its own run of lines.
"""

from __future__ import annotations

import bisect
import codecs
import contextlib
import csv
import functools
import io
import os
import re
from array import array
from itertools import accumulate, chain, count, islice

import numpy as np

from . import combine as comb, simulate as sim
from .errors import DomainError, HeavyCombError, ShapeError, ValidationError

__all__ = []


def _undecoded(text: str) -> bool:
    """Whether ``text`` holds a byte that the input's encoding could not decode."""
    return not text.isascii() and _SURROGATE.search(text) is not None


_SURROGATE = re.compile("[\udc80-\udcff]")


def _iter_groups(lines, encoding, first):
    """Yield (line_no, group_id, p_values) from the lines of a ragged CSV file
    in ``encoding``, open by ``cli._open_input``, numbering them from ``first``.

    A header line is detected by a non-numeric second field on line 1.
    ``float`` ignores the whitespace around a token, as ``strip`` would.  A
    group id or p-value that is not text, or a line that ``csv`` cannot read,
    is a ValidationError naming the line.
    """
    rows = csv.reader(lines)
    for line_no in count(first):
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
        if not row or (len(row) == 1 and not row[0].strip()):
            raise ValidationError(f"line {line_no}: empty line")
        if _undecoded(row[0]):  # the one field written out as read
            raise ValidationError(f"line {line_no}: not {encoding} text")
        if line_no == 1 and len(row) >= 2:
            try:
                float(row[1])
            except ValueError:
                continue  # header
        group_id = row[0].strip()
        if len(row) < 2:
            raise ValidationError(f"line {line_no}: group {group_id!r} has no p-values")
        try:  # every token parses before any range is checked
            values = list(map(float, row[1:]))
        except ValueError:
            for tok in row[1:]:  # name the first bad token
                try:
                    float(tok)
                except ValueError:
                    what = (f"not {encoding} text" if _undecoded(tok)
                            else f"unparseable p-value: {tok.strip()!r}")
                    raise ValidationError(f"line {line_no}: {what}") from None
        for v in values:
            if not (0.0 < v <= 1.0):
                raise ValidationError(f"line {line_no}: p-value {v!r} outside (0, 1]")
        yield line_no, group_id, values


_BATCH = 1 << 13  # characters of input that the bulk path converts at a time


def _line_pieces(lines, encoding, first):
    """``_iter_groups(lines, encoding, first)`` in pieces (see ``_pieces``) of
    about as many p-values as a batch holds, then its error."""
    rows = _iter_groups(lines, encoding, first)
    while True:
        piece, flat, error = [], array("d"), None
        try:
            for line_no, group_id, values in rows:
                piece.append((line_no, group_id, len(values)))
                flat.extend(values)
                if 16 * len(flat) >= _BATCH:  # at 16 characters a p-value
                    break
        except ValidationError as exc:
            error = exc
        if piece:
            line_nos, ids, lengths = zip(*piece)
            yield line_nos[0], list(ids), list(lengths), np.frombuffer(flat)
        if error is not None:
            raise error
        if not piece:
            return


def _bulk(batch):
    """The ``(ids, lengths, values)`` of a batch of lines, or None for
    ``_iter_groups`` to judge it (see ``_pieces``)."""
    text = "".join(batch)
    if '"' in text or "\0" in text or max(map(len, batch)) > csv.field_size_limit():
        return None
    fields = [line.split(",") for line in batch]
    lengths = [len(f) - 1 for f in fields]
    try:
        if not text.isascii():  # a byte that is not text reads as a surrogate: not UTF-8
            text.encode()
        values = np.fromiter(map(float, chain.from_iterable([f[1:] for f in fields])),
                             float, text.count(","))
    except ValueError:  # UnicodeEncodeError is one
        return None
    if all(lengths) and values.min() > 0.0 and values.max() <= 1.0:
        return [f[0].strip() for f in fields], lengths, values
    return None


def _pieces(fh, first, lines):
    """The groups of the input open as ``fh``, from line ``first`` (of ``lines``
    lines, if given), in pieces ``(line_no, ids, lengths, values)``: the line of
    the first group (the others follow it line by line), the group ids, the
    p-value count of each, and their p-values end to end.

    A batch is the first line alone (line 1 may be a header), then lines up to
    ``_BATCH`` characters or just past.  The bulk path gives it one
    ``str.split`` a line, one ``float`` pass and one range check, unless it
    holds a ``"``, a NUL, a byte that is not text, a line longer than csv's
    field limit or with no comma, or a token that ``float`` refuses or puts
    outside (0, 1]: then it goes through ``_iter_groups``.  A quoted field may
    span a line end, so a ``"`` sends the rest of the input there too.
    """
    source, budget = (fh if lines is None else islice(fh, lines)), 1
    while True:
        batch, size = [], 0
        for line in source:
            batch.append(line)
            size += len(line)
            if size >= budget:
                break
        if not batch:
            return
        if (piece := _bulk(batch)) is not None:
            yield first, *piece
        elif any('"' in line for line in batch):
            yield from _line_pieces(chain(batch, source), fh.encoding, first)
            return
        else:
            yield from _line_pieces(batch, fh.encoding, first)
        first, budget = first + len(batch), _BATCH


def _batched_rows(fh, compute, first, lines):
    """The rows of each group of a file command, in input order, computed a
    chunk at a time (``itertools.chain.from_iterable`` flattens them), from
    the pieces that ``_pieces(fh, first, lines)`` reads.

    A chunk is groups of up to ``combine._CHUNK`` p-values in all (one group
    at least), cut short by a read error.  Its values are gathered into one
    ``(groups, n)`` block per group length, and its pieces let go, before
    ``compute(block, ids)`` maps each length's block and group ids to each
    group's rows, in order; so its working set is bounded whatever the
    lengths.  A block fails only for its length and the flags, so blocks run
    in the order of their first group, to which a failed block's error
    belongs: every row before that group's line is yielded, then the error is
    raised, named by the line for a p-value or shape error.
    """
    pieces, rest = _pieces(fh, first, lines), None
    while True:
        taken, size, error = [], 0, None
        try:
            while size < comb._CHUNK:  # a piece is cut after the group that fills the chunk
                line_no, ids, lengths, values = rest or next(pieces)
                ends = list(accumulate(lengths))
                k = min(bisect.bisect_left(ends, comb._CHUNK - size) + 1, len(ends))
                cut, size = ends[k - 1], size + ends[k - 1]
                rest = (line_no + k, ids[k:], lengths[k:], values[cut:]) if k < len(ends) else None
                taken.append((line_no, ids[:k], lengths[:k], values[:cut]))
        except StopIteration:
            pass
        except ValidationError as exc:
            error = exc
        if taken:
            line_no, stop, results = taken[0][0], None, {}
            ids, order = ([*chain.from_iterable(piece[i] for piece in taken)] for i in (1, 2))
            lengths = np.fromiter(order, np.intp, len(order))
            values = np.concatenate([piece[3] for piece in taken])
            starts, blocks = np.cumsum(lengths) - lengths, []
            del taken
            for n in dict.fromkeys(order):  # in the order of their first group
                rows = np.flatnonzero(lengths == n)
                blocks.append((int(rows[0]), n, values[starts[rows, None] + np.arange(n)],
                               [ids[r] for r in rows.tolist()]))
            del values, ids, lengths, starts  # the blocks hold the chunk's only copy
            for i, n, block, block_ids in blocks:
                try:
                    results[n] = iter(compute(block, block_ids))
                except HeavyCombError as exc:
                    stop, error = i, exc
                    break
            del blocks
            yield from map(next, map(results.__getitem__, order[:stop]))
            del results, order  # before the next chunk is read
            if isinstance(error, (DomainError, ShapeError)):
                raise ValidationError(f"line {line_no + stop}: {error}") from error
        if error is not None:
            raise error
        if size < comb._CHUNK:
            return


_SCAN = 1 << 16  # bytes of the input that a split's pre-pass reads at a time


def _counts(data: bytes) -> tuple[int, int]:
    """The commas and the line ends in ``data``, with lines split as
    ``cli._open_input``'s reader splits them: at \\r\\n, \\r or \\n."""
    return data.count(b","), data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


_LINE_END = re.compile(rb"\r\n?|\n")


def _line_end(data: bytes, at: int) -> int:
    """The index just past the first line end in ``data`` from ``at``, or -1."""
    end = _LINE_END.search(data, at)
    return -1 if end is None else end.end()


def _ranges(fh, workers: int):
    """The ranges of a split of the input open as ``fh``, as ``(byte offset,
    first line, lines)`` (``lines`` None for the last, which reads to the end),
    or None to read it in one process.

    One pre-pass reads the raw bytes ``_SCAN`` at a time, never between a \\r
    and a \\n, and counts the commas, which number the p-values, and the line
    ends.  There are ``min(workers, ceil(p-values / combine._CHUNK))`` ranges,
    near-equal in p-values: range k starts after the line that holds comma
    ``k * p-values // ranges``.  An input that cannot seek, is not UTF-8 or
    ASCII, or holds a ``"`` (a quoted field may span a line end) is read in
    one process.
    """
    if not fh.seekable() or codecs.lookup(fh.encoding).name not in ("utf-8", "ascii"):
        return None
    fd = fh.fileno()
    blocks = []  # (offset, commas before, line ends before) of each block, then of the end
    offset = commas = ends = 0
    while block := os.pread(fd, _SCAN, offset):
        while block.endswith(b"\r") and (more := os.pread(fd, 1, offset + len(block))):
            block += more
        if b'"' in block:
            return None
        blocks.append((offset, commas, ends))
        counted = _counts(block)
        commas += counted[0]
        ends += counted[1]
        offset += len(block)
    parts = min(workers, -(-commas // comb._CHUNK))
    if parts < 2:
        return None
    blocks.append((offset, commas, ends))
    before = [block[1] for block in blocks]
    read = lambda i: os.pread(fd, blocks[i + 1][0] - blocks[i][0], blocks[i][0])  # block i
    cuts = [(0, 0)]  # (offset, line ends before) where each range starts
    for k in range(1, parts):
        target = commas * k // parts
        i = bisect.bisect_right(before, target) - 1  # the block that holds the target comma
        data = read(i)
        end = _line_end(data, int(np.flatnonzero(np.frombuffer(data, np.uint8) == 44)
                                  [target - before[i]]))
        while end < 0 and i + 2 < len(blocks):  # the line goes on into the next block
            i += 1
            data = read(i)
            end = _line_end(data, 0)
        if end < 0:
            break  # the target's line is the last
        cut = (blocks[i][0] + end, blocks[i][2] + _counts(data[:end])[1])
        if cuts[-1][0] < cut[0] < offset:
            cuts.append(cut)
    if len(cuts) < 2:
        return None
    counts = [b[1] - a[1] for a, b in zip(cuts, cuts[1:])] + [None]
    return [(start, line + 1, count) for (start, line), count in zip(cuts, counts)]


def _spool_range(payload):
    """A range of a split (see ``_rows``), read from a new open of the input:
    its CSV lines go to its spool, and the error that ended them, or None, is
    returned."""
    path, encoding, start, first, lines, spool, compute, csv_lines = payload
    try:
        with open(path, "rb") as raw:
            raw.seek(start)
            with io.TextIOWrapper(raw, encoding, "surrogateescape", newline="") as fh, \
                    open(spool.fileno(), "w", encoding="utf-8", errors="surrogatepass",
                         newline="", closefd=False) as out:
                rows = _batched_rows(fh, compute, first, lines)
                out.writelines(csv_lines(chain.from_iterable(rows)))
    except HeavyCombError as exc:  # the rows before it are in the spool
        return exc
    return None


def _spooled(spools, results):
    """The CSV text of each spool in range order, each followed by its range's
    error, raised."""
    for spool, error in zip(spools, results):
        spool.seek(0)
        text = io.TextIOWrapper(spool, "utf-8", "surrogatepass", newline="")
        yield from iter(functools.partial(text.read, _SCAN), "")
        text.detach()  # the spool stays open until the split ends
        if error is not None:
            raise error


@contextlib.contextmanager
def _rows(path, fh, compute, csv_lines, workers: int):
    """``(rows, tail)`` of the input at ``path``, open as ``fh``: the rows of
    every group (see ``_batched_rows``), and the CSV text that follows them.

    An input that ``_ranges`` splits is shared by as many processes; any other
    is the one range ``(0, 1, None)``.  This one yields the rows of the first
    range.  A forked child (see ``simulate._forked``) reads each other range
    from a new open of the input (an inherited descriptor would share its
    offset), numbers its lines from the range's first and never looks for a
    header.  It formats its rows with ``csv_lines`` into an unnamed temporary
    file, a spool, and sends back only its error or None.  The tail is each
    spool's text in range order, then its range's error, raised.  So, written
    after the rows, the bytes, the first error in line order and the rows
    before it are those of one process, and no process holds more than a chunk
    of rows.  On leaving, every child still at work is killed.
    """
    ranges = (workers > 1 and hasattr(os, "fork") and _ranges(fh, workers)) or [(0, 1, None)]
    if len(ranges) > 1:
        import tempfile  # only a split needs it
    with contextlib.ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in ranges[1:]]
        payloads = [(path, fh.encoding, *part, spool, compute, csv_lines)
                    for part, spool in zip(ranges[1:], spools)]
        results = stack.enter_context(sim._forked(_spool_range, payloads))
        yield (chain.from_iterable(_batched_rows(fh, compute, 1, ranges[0][2])),
               _spooled(spools, results))

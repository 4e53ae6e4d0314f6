"""Group files: the ragged CSV input (``group_id,p1,p2,...``) of the file commands.

``_iter_groups`` reads one line at a time, and ``_batched_rows`` a chunk of
about ``combine._CHUNK`` p-values at a time.  ``_rows`` spreads a file
across forked processes, each of which reads, computes and formats its own
run of lines.
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
from itertools import chain, count, islice

import numpy as np

from . import combine as comb, simulate as sim
from .errors import DomainError, HeavyCombError, ShapeError, ValidationError

__all__ = []


def _undecoded(text: str) -> bool:
    """Whether ``text`` holds a byte that the input's encoding could not decode."""
    return not text.isascii() and _SURROGATE.search(text) is not None


_SURROGATE = re.compile("[\udc80-\udcff]")


def _iter_groups(fh, first=1, lines=None):
    """Yield (line_no, group_id, p_values) from a ragged CSV file open as ``fh``
    (by ``cli._open_input``), numbering its lines from ``first``; with ``lines``,
    of that many lines only.

    A header line is detected by a non-numeric second field on line 1.
    ``float`` ignores the whitespace around a token, as ``strip`` would.  A
    group id or p-value that is not text, or a line that ``csv`` cannot read,
    is a ValidationError naming the line.
    """
    rows = csv.reader(fh if lines is None else islice(fh, lines))
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
            raise ValidationError(f"line {line_no}: not {fh.encoding} text")
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
                    what = (f"not {fh.encoding} text" if _undecoded(tok)
                            else f"unparseable p-value: {tok.strip()!r}")
                    raise ValidationError(f"line {line_no}: {what}") from None
        for v in values:
            if not (0.0 < v <= 1.0):
                raise ValidationError(f"line {line_no}: p-value {v!r} outside (0, 1]")
        yield line_no, group_id, values


def _batched_rows(fh, compute, first, lines):
    """The rows of each group of a file command, in input order, computed a
    chunk at a time (``itertools.chain.from_iterable`` flattens them), from
    the lines that ``_iter_groups(fh, first, lines)`` reads.

    A chunk is groups of up to ``combine._CHUNK`` p-values in all (one group
    at least), cut short by a read error.  It is held as one flat ``array`` of
    doubles per group length, with that length's group ids, so its working set
    is bounded whatever the lengths.  ``compute(block, ids)`` maps a length's
    ``(groups, n)`` block and its group ids to each group's rows, in order.  A
    block fails only for its length and the flags, so blocks run in the order
    of their first group, to which a failed block's error belongs: every row
    before that group's line is yielded, then the error is raised, named by the
    line for a p-value or shape error.
    """
    groups = _iter_groups(fh, first, lines)
    while True:
        lengths, blocks, results, size, error = [], {}, {}, 0, None
        try:
            for line_no, group_id, values in groups:
                n = len(values)
                if n not in blocks:
                    blocks[n] = (line_no, len(lengths), array("d"), [])
                blocks[n][2].extend(values)
                blocks[n][3].append(group_id)
                lengths.append(n)
                size += n
                if size >= comb._CHUNK:
                    break
        except ValidationError as exc:
            error = exc
        stop = len(lengths)
        for n, (line_no, index, flat, ids) in blocks.items():
            try:
                results[n] = iter(compute(np.frombuffer(flat).reshape(-1, n), ids))
            except HeavyCombError as exc:
                stop, bad_line, error = index, line_no, exc
                break
        for n in lengths[:stop]:
            yield next(results[n])
        if isinstance(error, (DomainError, ShapeError)):
            raise ValidationError(f"line {bad_line}: {error}") from error
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

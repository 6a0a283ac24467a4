"""The package's text formats: one line rule in, one table writer out.

:func:`open_text` opens every file flexls reads: UTF-8, a leading
byte-order mark skipped, and a line ends at ``\\n``, ``\\r`` or ``\\r\\n``
(universal newlines), which all reach the reader as ``\\n``;
:func:`count_lines` counts a file's lines under that rule.
:func:`write_table` writes every CSV: UTF-8, ``\\n`` line ends, a header
row, and floats with 17 significant digits, which round-trip any double,
so reruns are byte-identical and a re-read is lossless.
:func:`write_blocks` writes the same bytes from rows handed over a block
at a time, for tables too long to hold whole.

The writer formats a block of about ``BLOCK_CELLS`` cells at a time with
numpy, straight into a byte matrix.  Each cell gets a fixed-width slot
holding every character any of its spellings could need, in order, with
each byte its spelling drops written as 0; no kept byte is 0 (a text cell
may not hold U+0000), so dropping the matrix's zero bytes, a few rows at
a time, gives the block's text.  A float slot's digits are written whole
and then ANDed with mask words of 0x00 and 0xFF bytes, chosen by its
sign, spelling class and count of significant digits.

A float is spelled exactly as ``'%.17g' % x`` spells it.  For
``1e-280 < |x| < 1e280`` the kernel finds the decimal exponent ``E``, then
forms ``|x| * 10**(16 - E)`` from a table of powers of ten held as
double-double pairs ``hi + lo`` (within ``2**-106`` of the exact power,
relatively): ``|x| * hi`` exactly, as a rounded product plus its error
(Dekker's split product, exact because numpy rounds each multiply and add
as written and never fuses them), plus ``|x| * lo``.  The rounded product
is an integer below ``2**57``, and the remainder added to it is off from
the exact one by less than ``1e-14``, so rounding the remainder to the
nearest integer gives the 17 correctly rounded digits, unless the exact
fraction lies that close to one half.  A cell whose computed fraction
lies within ``1e-9`` of one half (a true tie such as
``1234567890123456.75``, whose digits round to even) is spelled by
:func:`fmt_g17` instead, as is every nonzero finite value outside that
range.  The kernel spells a zero ``0`` or ``-0``, and a NaN or an
infinity ``nan``, ``inf`` or ``-inf``, each from a fixed slot row, as
``'%.17g'`` does.  An int is written through a float slot: every int
within ``2**53`` of 0 is an exact double, which ``'%.17g'`` spells as the
int's own digits, and a larger one is spelled by ``str`` from its 64-bit
value, taken before the cast.  Text is written as UTF-8: ASCII text
straight from its code points, other text through ``np.char.encode``.
The tables are built on the first write, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# Cells formatted at a time: at 435 columns (a p=432 coefficient path) one
# block is 18 rows, and its byte matrix takes about 0.375 MB.
BLOCK_CELLS = 8192
# Steps that gather or index a whole row of slots (the mask words, the
# compress) take this many bytes of the byte matrix at a time, so that
# their scratch stays a fraction of the matrix's own; count_lines reads a
# file this many bytes at a time.
_CHUNK_BYTES = 1 << 16

# Every slot is a whole number of 8-byte words, so the byte matrix is also
# a matrix of uint64 words and a number slot (a float's or an int's) is
# built a word at a time:
#   bytes  0-7    "-0.000" (sign, then a fixed form's leading zeros), the
#                 first digit, "."
#   bytes  8-39   four words of four digits, each digit followed by "."
#   bytes 40-47   "e", the exponent's sign and three digits, ",", padding
_F_WIDTH = 48
_F_DIGITS = slice(6, 40, 2)
_F_POINTS = slice(7, 39, 2)
# Where a number slot holds its separator (a text slot: after the text).
_SEPARATOR = 45
# Spelling classes of a float: "%g"'s fixed form at exponents -4..16, then
# its scientific form with a two- or three-digit exponent.
_CLASSES = 23
# Exponents of the double-double powers of ten: the scaling 10**(16 - E)
# and the comparison with 10**(E + 1) for any |x| in (1e-280, 1e280).
_P10_MIN, _P10_MAX = -290, 300
_SPLIT = 134217729.0    # 2**27 + 1, Veltkamp's splitting constant
_TIE = 1e-9
_DTYPES = {"f": np.float64, "i": np.int64, "u": np.uint64, "U": None}


def open_text(path):
    """Open ``path`` for reading under the line rule above."""
    return open(path, encoding="utf-8-sig")


def count_lines(path) -> int:
    """The lines :func:`open_text` reads from ``path``, a last line without
    an end included, counted in binary reads of ``_CHUNK_BYTES``, so the
    text is never held whole.  No UTF-8 sequence holds a ``\\n`` or ``\\r``
    byte, so the bytes count as the text does.  The ``\\n`` bytes are
    counted by numpy, about three times as fast as ``bytes.count``; the
    ``\\r`` bytes only in a read that holds one.
    """
    lines = 0
    last = b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk.startswith(b"\n"):
                lines -= 1     # a \r\n split between two reads
            last = chunk[-1:]
    return lines + (last not in (b"\n", b"\r"))


def fmt_g17(value: float) -> str:
    """One float as :func:`write_table` writes it."""
    return format(float(value), ".17g")


def iso_dates(days) -> np.ndarray:
    """Dates as a text column for :func:`write_table`, ``YYYY-MM-DD``."""
    return np.asarray([day.isoformat() for day in days], dtype=str)


def block_rows(n_columns: int, budget: int = BLOCK_CELLS) -> int:
    """Rows of ``n_columns`` cells each in a block of about ``budget``
    cells: by default the rows the writer formats at a time."""
    return max(1, budget // max(1, n_columns))


def write_table(path, header: list[str], columns, blank_nan: bool = False) -> None:
    """Write ``columns``, one per ``header`` cell and all of one length.

    A column's numpy dtype says how its cells are written: floats as
    :func:`fmt_g17` spells them (NaN as ``nan``, or with ``blank_nan`` as
    an empty cell, the hole of a price file), ints in decimal as ``str``
    spells them (through the float slots, see above), text as given and
    unquoted (a text cell may not hold U+0000).  A 2-d ``(rows, k)``
    array stands for ``k`` neighbouring columns of one kind, and takes
    ``k`` header cells; a 1-d column is the case ``k = 1``.  Cells are
    formatted a block of rows at a time, about ``BLOCK_CELLS`` cells, so
    the scratch held at once stays small however long the table is.  A
    table it cannot write raises before the file is opened.
    """
    _write(path, header, [_checked(header, columns)], blank_nan)


def write_blocks(path, header: list[str], blocks, blank_nan: bool = False) -> None:
    """Write a table handed over a block of rows at a time.

    ``blocks`` yields lists of columns, as :func:`write_table` takes them,
    each block's rows following the last block's.  A block is formatted
    and written as it arrives, so a producer can write a table it never
    holds whole, and the bytes are those :func:`write_table` writes for the
    same rows however they are split.  A block it cannot write raises,
    leaving the rows before it in the file.
    """
    _write(path, header, (_checked(header, columns) for columns in blocks), blank_nan)


def _checked(header, columns):
    """``(rows, runs)``: the row count, and the runs of neighbouring
    columns of one kind, which are formatted together, each a
    ``(kind, arrays)`` pair of ``(rows, k)`` arrays."""
    arrays = [np.asarray(col) for col in columns]
    arrays = [a[:, None] if a.ndim == 1 else a for a in arrays]
    n = len(arrays[0]) if arrays else 0
    ragged = any(a.ndim != 2 or len(a) != n for a in arrays)
    if ragged or sum(a.shape[1] for a in arrays) != len(header):
        raise ValueError(f"need {len(header)} columns of one length")
    kinds = [a.dtype.kind for a in arrays]
    if not set(kinds) <= set(_DTYPES):
        raise TypeError(f"columns must hold ints, floats or text, got kinds {kinds}")
    if any(kind == "U" and _holds_nul(a) for kind, a in zip(kinds, arrays)):
        raise ValueError("a text cell holds U+0000, which the writer cannot write")
    runs = []
    for kind, a in zip(kinds, arrays):
        if runs and runs[-1][0] == kind:
            runs[-1][1].append(a)
        else:
            runs.append((kind, [a]))
    return n, runs


def _write(path, header, blocks, blank_nan: bool) -> None:
    """Write the header, then each ``(rows, runs)`` of ``blocks``."""
    step = block_rows(len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for n, runs in blocks:
            for lo in range(0, n, step):
                block = [(kind, [a[lo : lo + step] for a in run]) for kind, run in runs]
                fh.writelines(_format_block(block, blank_nan))


def _format_block(runs, blank_nan: bool):
    """The text of one block of rows, yielded as ``uint8`` arrays to write
    in turn."""
    parts = []
    for kind, arrays in runs:
        # The run's columns as one (rows, columns) array, copied in C.
        cells = np.concatenate(arrays, axis=1, dtype=_DTYPES[kind])
        shape = cells.shape
        if kind == "U":
            cells = _utf8(cells)
            separator = cells.shape[-1]
            slot = -(-(separator + 1) // 8) * 8
        else:
            slot, separator = _F_WIDTH, _SEPARATOR
        parts.append((kind, cells, shape, slot))
    rows = shape[0]
    width = sum(shape[1] * slot for _, _, shape, slot in parts)
    out = np.empty((rows, width), np.uint8)
    lo = 0
    while parts:        # each run's cells are freed once its slots are filled
        kind, cells, shape, slot = parts.pop(0)
        hi = lo + shape[1] * slot
        slots = out[:, lo:hi].reshape(shape + (slot,))
        if kind == "U":
            _text_slots(cells, slots)
        elif kind == "f":
            _float_slots(cells, slots, blank_nan)
        else:
            _int_slots(cells, slots)
        del cells
        lo = hi
    # The last cell's separator ends the row.
    out[:, width - slot + separator] = ord("\n")
    # Every byte a spelling drops is 0, and no kept byte is.  compress
    # (index, then gather) beats a boolean index here, whose runs are too
    # short for branch prediction; its index takes 8 bytes per kept byte,
    # so it runs a chunk of rows at a time.
    for chunk in _row_chunks(rows, width):
        flat = out[chunk].ravel()
        yield np.compress(flat != 0, flat)


def _row_chunks(n_rows: int, row_bytes: int) -> list[slice]:
    """Whole rows of a block, about ``_CHUNK_BYTES`` of slots at a time."""
    step = block_rows(row_bytes, _CHUNK_BYTES)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _holds_nul(text) -> bool:
    """Whether a cell of a ``U`` array holds U+0000 (which a numpy text
    array keeps only before a later character: trailing ones are its
    padding)."""
    codes = np.ascontiguousarray(text).view(np.uint32)
    return np.count_nonzero(codes) != np.char.str_len(text).sum()


def _utf8(cells):
    """Text cells (a ``U`` array) as UTF-8: a ``uint8`` array with one more
    axis, each cell's bytes padded with zeros."""
    codes = cells.view(np.uint32).reshape(cells.shape + (-1,))
    if codes.max(initial=0) < 0x80:     # ASCII: each code point is its byte
        return codes.astype(np.uint8)
    return np.char.encode(cells, "utf-8").view(np.uint8).reshape(cells.shape + (-1,))


def _text_slots(text, slots) -> None:
    """Fill the slots of text cells, given as :func:`_utf8` gives them."""
    width = text.shape[-1]
    slots[..., :width] = text
    slots[..., width] = ord(",")
    slots[..., width + 1 :] = 0


def _int_slots(values, slots) -> None:
    """Fill the float slots of int64 or uint64 cells.

    Every int within ``2**53`` of 0 is an exact double, which ``'%.17g'``
    spells as the int's digits; the others are spelled by ``str`` before
    the cast, and written over what their doubles gave.
    """
    big = np.flatnonzero((values > 2**53) | (values < -(2**53)))
    texts = [str(v) for v in values.ravel()[big].tolist()]
    _float_slots(values.astype(np.float64), slots, blank_nan=False)
    _spell(slots, big, texts)


def _float_slots(values, slots, blank_nan: bool) -> None:
    """Fill the slots of float64 cells as ``'%.17g'`` spells them.

    ``values`` is the block's own copy of the cells, and is overwritten.
    """
    tables = _tables()
    neg = np.signbit(values)
    special = ~np.isfinite(values)
    odd = values[special]
    mag = np.abs(values, out=values)
    with np.errstate(invalid="ignore"):     # NaN compares false: not ok
        ok = (mag > 1e-280) & (mag < 1e280)
    zero = mag == 0.0
    # Cells fmt_g17 spells: nonzero finite values out of range, then ties.
    far = np.flatnonzero(~(ok | zero | special))
    deferred = [(far, mag.ravel()[far])]
    mag[~ok] = 1.0
    # mag is a normal double in [2**b, 2**(b+1)), b its unbiased exponent,
    # so E = floor(log10(mag)) is floor(b * log10(2)), which this integer
    # form gives exactly for |b| < 1650, or one more.
    e = mag.view(np.int64) >> 52
    e -= 1023
    e *= 78913
    e >>= 18
    e += mag >= tables.ceil10[e + 1 - _P10_MIN]
    n, tie = _scaled(mag, e, tables)
    tie = np.flatnonzero(tie)
    deferred.append((tie, mag.ravel()[tie]))
    # Rounding can carry to 10**17 (9.99...95e-5 to 1e-4): one more decade.
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    n[zero] = 0         # spelled "0" or "-0": E = 0 and one digit, 0

    words = slots.view(np.uint64)
    trailing = _digit_words(n, words, tables)
    del n
    e -= _P10_MIN
    words[..., 5] = tables.exp_words[e]
    # The mask's row: sign, spelling class (from E), significant digits.
    code = tables.class_codes[e]
    code -= trailing
    del trailing
    code += neg * (_CLASSES * 17)
    for chunk in _row_chunks(len(code), words[0].nbytes):
        words[chunk] &= tables.float_masks.take(code[chunk], axis=0)
    # Row 0 nan, 1 inf, 2 -inf, 3 the empty cell of a blank NaN.
    row = np.where(odd > 0.0, 1, 2)
    row[np.isnan(odd)] = 3 if blank_nan else 0
    words[special] = tables.special_words[row]
    for cells, mags in deferred:
        np.negative(mags, out=mags, where=neg.ravel()[cells])
        _spell(slots, cells, [fmt_g17(x) for x in mags.tolist()])


def _spell(slots, cells, texts) -> None:
    """Write each of ``texts`` (ASCII, at most 24 characters) whole into a
    number slot, given by its cell's index in the flattened block."""
    for cell, text in zip(cells.tolist(), texts):
        slot = slots[divmod(cell, slots.shape[1])]
        slot[:] = 0
        slot[: len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
        slot[_SEPARATOR] = ord(",")


def _scaled(mag, e, tables):
    """``(N, tie)``: ``N = mag * 10**(16 - E)`` rounded to an integer, and
    where its fraction came within ``_TIE`` of one half.

    ``N`` is the exact product ``p + err`` of mag and the power's ``hi``
    (``p`` an integer: every double above 2**53 is), plus ``mag * lo``.
    Each product and sum is rounded as the formula writes it, in four
    cell-sized buffers besides ``mag``: each later part of the power is
    gathered into the same one (``mode="clip"``: the indices are in range,
    and ``"raise"`` would copy), which then holds ``N``.
    """
    i = np.subtract(16 - _P10_MIN, e, out=e)     # e is restored below
    hi, lo, hi_hi, hi_lo = tables.pow10
    part = np.empty_like(mag)
    # mag = mag_hi + mag_lo: mag_hi = c - (c - mag), c = _SPLIT * mag.
    mag_hi = np.multiply(mag, _SPLIT)
    np.subtract(mag_hi, mag, out=part)
    mag_hi -= part
    p = hi.take(i)
    p *= mag
    # err = ((mag_hi*hi_hi - p) + mag_hi*hi_lo + mag_lo*hi_hi) + mag_lo*hi_lo
    err = hi_hi.take(i)
    err *= mag_hi
    err -= p
    hi_lo.take(i, out=part, mode="clip")
    part *= mag_hi
    err += part
    mag_lo = np.subtract(mag, mag_hi, out=mag_hi)
    for power in (hi_hi, hi_lo):
        power.take(i, out=part, mode="clip")
        part *= mag_lo
        err += part
    lo.take(i, out=part, mode="clip")
    part *= mag
    err += part                     # the remainder: N = p + rint(err)
    np.subtract(16 - _P10_MIN, i, out=e)
    frac = np.floor(err, out=mag_lo)
    np.subtract(err, frac, out=frac)
    frac -= 0.5
    tie = np.abs(frac, out=frac) < _TIE
    n = part.view(np.int64)
    np.copyto(n, p, casting="unsafe")
    rounded = frac.view(np.int64)
    np.copyto(rounded, np.rint(err, out=err), casting="unsafe")
    n += rounded
    return n, tie


def _digit_words(n, words, tables):
    """Write the 17 digits of each ``n`` (below 10**17) into words 0-4 of
    its float slot, a group of four at a time from the last; returns each
    cell's count of trailing zeros.  ``n``'s buffer is reused."""
    high = np.empty_like(n)
    group = np.empty_like(n)
    for k in range(4, 0, -1):
        np.floor_divide(n, 10**4, out=high)
        np.subtract(n, np.multiply(high, 10**4, out=group), out=group)
        out = n.view(np.uint64)
        words[..., k] = tables.point_quads.take(group, out=out, mode="clip")
        # Trailing zeros: those of the last group that is not 0000, plus
        # four for each group after it.  Most cells end in a nonzero group;
        # the later steps visit the rest.
        flat = group.ravel()
        if k == 4:
            trailing = tables.trailing_zeros.take(group)
            tail = np.flatnonzero(flat == 0)
        else:
            trailing.ravel()[tail] += tables.trailing_zeros[flat[tail]]
            tail = tail[flat[tail] == 0]
        n, high = high, n
    # n is the lead digit, 0 only in a zero, which is left one digit.
    words[..., 0] = tables.lead_words.take(n, out=high.view(np.uint64), mode="clip")
    return trailing


class _Tables:
    """Lookup tables of the block formatter; see :func:`_tables`."""

    def __init__(self) -> None:
        # 10**k = a / b as hi + lo, each correctly rounded (as Python's
        # int division rounds), and hi split in two halves.
        pairs = []
        for k in range(_P10_MIN, _P10_MAX + 1):
            a, b = (10**k, 1) if k >= 0 else (1, 10**-k)
            hi = a / b
            n, d = hi.as_integer_ratio()
            pairs.append((hi, (a * d - n * b) / (b * d)))
        hi, lo = np.array(pairs).T
        c = _SPLIT * hi
        hi_hi = c - (c - hi)
        self.pow10 = (hi, lo, hi_hi, hi - hi_hi)
        # The least double at or above 10**k: mag >= 10**k exactly iff
        # mag >= ceil10[k].
        self.ceil10 = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi)

        groups = np.arange(10**4)
        digits = (groups[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
        digits += ord("0")
        # Each group of four digits as one word, each digit followed by ".".
        points = np.full((10**4, 8), ord("."), np.uint8)
        points[:, ::2] = digits
        self.point_quads = points.view(np.uint64)[:, 0]
        self.trailing_zeros = np.where(
            groups == 0, 4, np.argmax(digits[:, ::-1] != ord("0"), axis=1)
        )
        self.lead_words = np.array(
            [b"-0.000%d." % d for d in range(10)], dtype="S8"
        ).view(np.uint64)
        self.exp_words = np.array(
            [b"e%+04d,\0\0" % k for k in range(_P10_MIN, _P10_MAX + 1)], dtype="S8"
        ).view(np.uint64)
        # Rows of the mask table, by exponent: the class's first row plus 16,
        # the row for 17 significant digits (the code takes off the zeros).
        e = np.arange(_P10_MIN, _P10_MAX + 1)
        classes = np.where((e >= -4) & (e < 17), e + 4, np.where(abs(e) < 100, 21, 22))
        self.class_codes = classes * 17 + 16
        masks = np.array(
            [
                _float_mask(neg, cls, n_sig)
                for neg in (False, True)
                for cls in range(_CLASSES)
                for n_sig in range(1, 18)
            ]
        )
        # 0xFF where the spelling keeps the slot's byte, 0 where it drops it.
        self.float_masks = (masks * np.uint8(0xFF)).view(np.uint64)
        # Whole slots: nan, inf, -inf, and the empty cell of a blank NaN.
        spellings = [b"nan", b"inf", b"-inf", b""]
        slots = np.zeros((len(spellings), _F_WIDTH), np.uint8)
        for row, text in zip(slots, spellings):
            row[: len(text)] = np.frombuffer(text, np.uint8)
            row[_SEPARATOR] = ord(",")
        self.special_words = slots.view(np.uint64)


def _float_mask(neg: bool, cls: int, n_sig: int) -> np.ndarray:
    """The slot characters a float's spelling keeps.

    ``cls`` 0..20 is the fixed form at exponent ``cls - 4``, 21 and 22 the
    scientific form with a two- or three-digit exponent; ``n_sig`` is the
    number of digits left once trailing zeros are dropped.
    """
    keep = np.zeros(_F_WIDTH, bool)
    digits, points = keep[_F_DIGITS], keep[_F_POINTS]
    keep[0] = neg
    if cls < 4:                      # 0.000ddd: "0.", 3 - cls zeros, digits
        keep[1 : 6 - cls] = True
        digits[:n_sig] = True
    elif cls < 21:                   # ddd.ddd: cls - 3 digits before the point
        whole = cls - 3
        digits[: max(n_sig, whole)] = True
        if n_sig > whole:
            points[whole - 1] = True
    else:                            # d.ddde+XX or d.ddde+XXX
        digits[:n_sig] = True
        points[0] = n_sig > 1
        keep[40:42] = True
        keep[42 if cls == 22 else 43 : 45] = True
    keep[_SEPARATOR] = True
    return keep


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built on first use (about 10 ms), not at import."""
    return _Tables()

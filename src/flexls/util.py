"""The package's text formats: one line rule in, one table writer out.

:func:`open_text` opens every file flexls reads: UTF-8, a leading
byte-order mark skipped, and a line ends at ``\\n``, ``\\r`` or ``\\r\\n``
(universal newlines), which all reach the reader as ``\\n``.
:func:`write_table` writes every CSV: UTF-8, ``\\n`` line ends, a header
row, and floats with 17 significant digits, which round-trip any double,
so reruns are byte-identical and a re-read is lossless.

The writer formats a block of about ``BLOCK_CELLS`` cells at a time with
numpy, straight into a byte matrix.  Each cell gets a fixed-width slot
holding every character any of its spellings could need, in order, and a
boolean mask of the same shape marks the ones its spelling keeps, so one
compress of the matrix gives the block's text.

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
``'%.17g'`` does.  Ints are spelled from their 64-bit value, never
through a float, and text is encoded as UTF-8.  The tables are built on
the first write, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# Cells formatted at a time: at 435 columns (a p=432 coefficient path) one
# block is 18 rows, and its byte matrix and mask take about 0.75 MB.
BLOCK_CELLS = 8192

# Every slot is a whole number of 8-byte words, so the byte matrix is also
# a matrix of uint64 words and a float slot is built a word at a time:
#   bytes  0-7    "-0.000" (sign, then a fixed form's leading zeros), the
#                 first digit, "."
#   bytes  8-39   four words of four digits, each digit followed by "."
#   bytes 40-47   "e", the exponent's sign and three digits, ",", padding
_F_WIDTH = 48
_F_DIGITS = slice(6, 40, 2)
_F_POINTS = slice(7, 39, 2)
# An int slot: sign, 20 digits (2**64 has 20), ",", padding.
_I_WIDTH = 24
# Where a float or int slot holds its separator (a text slot: after the text).
_SEPARATOR = {"f": 45, "i": 21, "u": 21}
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


def fmt_g17(value: float) -> str:
    """One float as :func:`write_table` writes it."""
    return format(float(value), ".17g")


def write_table(path, header: list[str], columns, blank_nan: bool = False) -> None:
    """Write ``columns``, one per ``header`` cell and all of one length.

    A column's numpy dtype says how its cells are written: ints in decimal,
    floats as :func:`fmt_g17` spells them (NaN as ``nan``, or with
    ``blank_nan`` as an empty cell, the hole of a price file), text as
    given and unquoted.  Cells are formatted a block of rows at a time,
    about ``BLOCK_CELLS`` cells, so the scratch held at once stays small
    however long the table is.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.ndim != 1 or len(c) != n for c in columns):
        raise ValueError(f"need {len(header)} 1-d columns of one length")
    kinds = [c.dtype.kind for c in columns]
    if not set(kinds) <= set(_DTYPES):
        raise TypeError(f"columns must hold ints, floats or text, got kinds {kinds}")
    # Neighbouring columns of one kind are formatted together, as a run.
    starts = [j for j in range(len(kinds)) if j == 0 or kinds[j] != kinds[j - 1]]
    runs = [(kinds[a], a, b) for a, b in zip(starts, starts[1:] + [len(kinds)])]
    step = max(1, BLOCK_CELLS // max(1, len(columns)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, n, step):
            block = [col[lo : lo + step] for col in columns]
            fh.write(_format_block(block, runs, blank_nan))


def _format_block(columns, runs, blank_nan: bool) -> np.ndarray:
    """The text of one block of rows, as a 1-d ``uint8`` array."""
    parts = []
    for kind, a, b in runs:
        # The run's columns as one (rows, columns) array, copied in C.
        cells = np.ascontiguousarray(np.array(columns[a:b], dtype=_DTYPES[kind]).T)
        if kind == "U":
            cells = np.char.encode(cells, "utf-8")
            slot, separator = -(-(cells.itemsize + 1) // 8) * 8, cells.itemsize
        else:
            slot = _F_WIDTH if kind == "f" else _I_WIDTH
            separator = _SEPARATOR[kind]
        parts.append((kind, cells, slot))
    rows = len(columns[0])
    width = sum(cells.shape[1] * slot for _, cells, slot in parts)
    out = np.empty((rows, width), np.uint8)
    keep = np.empty((rows, width), bool)
    lo = 0
    for kind, cells, slot in parts:
        hi = lo + cells.shape[1] * slot
        slots = out[:, lo:hi].reshape(cells.shape + (slot,))
        mask = keep[:, lo:hi].reshape(cells.shape + (slot,))
        if kind == "U":
            _text_slots(cells, slots, mask)
        elif kind == "f":
            _float_slots(cells, slots, mask, blank_nan)
        else:
            _int_slots(cells, slots, mask)
        lo = hi
    # The last cell's separator ends the row.
    out[:, width - slot + separator] = ord("\n")
    # compress (index, then gather) beats a boolean index on these masks,
    # whose runs are too short for branch prediction.
    return np.compress(keep.ravel(), out.ravel())


def _text_slots(cells, slots, mask) -> None:
    """Fill the slots of UTF-8 encoded text cells (an ``S`` array)."""
    width = cells.itemsize
    slots[..., :width] = cells.view(np.uint8).reshape(cells.shape + (width,))
    slots[..., width] = ord(",")
    mask[..., :width] = np.arange(width) < np.char.str_len(cells)[..., None]
    mask[..., width] = True
    mask[..., width + 1 :] = False


def _int_slots(values, slots, mask) -> None:
    """Fill the slots of int64 or uint64 cells: exact, never via a float."""
    quads = _tables().quads
    neg = values < 0
    mag = values.astype(np.uint64)      # two's complement for the negatives
    np.negative(mag, out=mag, where=neg)
    top = mag // np.uint64(10**16)
    groups = (top.astype(np.intp), *_groups16(mag - top * np.uint64(10**16)))
    digits = np.stack([quads[g] for g in groups], axis=-1).view(np.uint8)
    slots[..., 0] = ord("-")
    slots[..., 1:21] = digits
    slots[..., 21] = ord(",")
    lead = np.argmax(digits != ord("0"), axis=-1)
    lead[mag == 0] = 19
    mask[..., 0] = neg
    mask[..., 1:21] = np.arange(20) >= lead[..., None]
    mask[..., 21] = True
    mask[..., 22:] = False


def _float_slots(values, slots, mask, blank_nan: bool) -> None:
    """Fill the slots of float64 cells as ``'%.17g'`` spells them."""
    tables = _tables()
    mag = np.abs(values)
    with np.errstate(invalid="ignore"):     # NaN compares false: not ok
        ok = (mag > 1e-280) & (mag < 1e280)
    zero = mag == 0.0
    special = ~np.isfinite(values)
    mag[~ok] = 1.0
    # mag lies in [2**(b-1), 2**b), so E = floor(log10(mag)) is
    # floor((b-1) * log10(2)), which this integer form gives exactly for
    # |b-1| < 1650, or one more.
    e = (np.frexp(mag)[1].astype(np.intp) - 1) * 78913 >> 18
    e += mag >= tables.ceil10[e + 1 - _P10_MIN]
    # N = mag * 10**k, k = 16 - E: the exact product p + err of mag and hi,
    # p an integer (every double above 2**53 is), plus mag * lo.
    i = 16 - e - _P10_MIN
    hi, lo, hi_hi, hi_lo = (t[i] for t in tables.pow10)
    c = _SPLIT * mag
    mag_hi = c - (c - mag)
    mag_lo = mag - mag_hi
    p = mag * hi
    err = ((mag_hi * hi_hi - p) + mag_hi * hi_lo + mag_lo * hi_hi) + mag_lo * hi_lo
    rest = err + mag * lo
    frac = rest - np.floor(rest)
    defer = ~(ok | zero | special) | (np.abs(frac - 0.5) < _TIE)
    n = p.astype(np.int64) + np.rint(rest).astype(np.int64)
    # Rounding can carry to 10**17 (9.99...95e-5 to 1e-4): one more decade.
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    n[zero] = 0         # spelled "0" or "-0": E = 0 and one digit, 0

    lead = n // 10**16
    groups = _groups16(n - lead * 10**16)
    words = slots.view(np.uint64)
    words[..., 0] = tables.lead_words[lead]
    for k, group in enumerate(groups, 1):
        words[..., k] = tables.point_quads[group]
    words[..., 5] = tables.exp_words[e - _P10_MIN]
    # Trailing zeros: those of the last group that is not 0000, plus four
    # for each group after it.  The lead digit is 0 only in a zero, which
    # is left one digit.  Most cells end in a nonzero group; the loop
    # visits the rest.
    flat = [group.ravel() for group in groups]
    trailing = tables.trailing_zeros[flat[3]]
    tail = np.flatnonzero(flat[3] == 0)
    for group in flat[2::-1]:
        trailing[tail] += tables.trailing_zeros[group[tail]]
        tail = tail[group[tail] == 0]
    # The mask's row: sign, spelling class (from E), significant digits.
    code = tables.class_codes[e - _P10_MIN] - trailing.reshape(e.shape)
    code += np.signbit(values) * (_CLASSES * 17)
    mask.view(np.uint64)[...] = tables.float_masks.take(code, axis=0)
    if special.any():
        # Row 0 nan, 1 inf, 2 -inf, 3 the empty cell of a blank NaN.
        odd = values[special]
        row = np.where(odd > 0.0, 1, 2)
        row[np.isnan(odd)] = 3 if blank_nan else 0
        words[special, 0] = tables.special_words[row]
        mask.view(np.uint64)[special] = tables.special_masks[row]
    for cell in zip(*np.nonzero(defer)):
        text = fmt_g17(values[cell]).encode("ascii")
        slots[cell][: len(text)] = np.frombuffer(text, np.uint8)
        mask[cell][:] = np.arange(_F_WIDTH) < len(text)
        mask[cell][_SEPARATOR["f"]] = True


def _groups16(low) -> tuple:
    """The 16 decimal digits of ``low`` (ints below 10**16) as four groups
    of four, most significant first, each an ``intp`` array."""
    low = low.astype(np.int64, copy=False)
    upper = low // 10**8
    groups = []
    for part in (upper, low - upper * 10**8):
        high = part // 10**4
        groups += [high, part - high * 10**4]
    return tuple(g.astype(np.intp, copy=False) for g in groups)


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
        # Each group of four digits as one word: bare (4 bytes, for ints),
        # or each digit followed by "." (8 bytes, for a float slot).
        self.quads = digits.view(np.uint32)[:, 0]
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
        self.float_masks = masks.view(np.uint64)
        spellings = [b"nan", b"inf", b"-inf", b""]
        self.special_words = np.array(spellings, dtype="S8").view(np.uint64)
        masks = np.zeros((len(spellings), _F_WIDTH), bool)
        for row, text in zip(masks, spellings):
            row[: len(text)] = True
            row[_SEPARATOR["f"]] = True
        self.special_masks = masks.view(np.uint64)


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
    keep[_SEPARATOR["f"]] = True
    return keep


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built on first use (about 10 ms), not at import."""
    return _Tables()

"""Pure-stdlib image codecs: PNG (zlib DEFLATE, filters 0-4) and BMP
(24-bit uncompressed, BI_RGB).

The container ships no image libraries, so the multimodal decode stage
(reference analog: PDF→PIL page ingestion,
``prompts/artwork_processing_common.py:139-156``) implements the two
losslessly-codable containers natively: PNG needs only ``zlib`` (stdlib) for
the DEFLATE stream plus the five per-row prediction filters; BMP is plain
padded rows. Both directions are implemented so fixtures carry REAL payloads
and the decoder is exercised end-to-end (encode→decode round-trips are
identity; verified per filter type in tests).

Decoding is numpy-vectorized per row; PNG Sub/Paeth filters are inherently
sequential along x, so those rows fall back to a per-pixel loop — fine for
the bounded thumbnail sizes a feature-extraction stage handles per batch.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + tag
        + body
        + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray, filters: np.ndarray | None = None) -> bytes:
    """RGB uint8 (h, w, 3) → PNG bytes. ``filters`` optionally sets the
    per-row filter type (0-4); default None (all rows filter 0)."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, c = px.shape
    if c != 3:
        raise ValueError("encode_png expects RGB (h, w, 3)")
    if filters is None:
        filters = np.zeros(h, dtype=np.int64)
    raw = bytearray()
    prev = np.zeros((w, 3), dtype=np.int64)
    for y in range(h):
        row = px[y].astype(np.int64)
        f = int(filters[y])
        if f == 0:
            enc = row
        elif f == 1:  # Sub
            left = np.vstack([np.zeros((1, 3), np.int64), row[:-1]])
            enc = row - left
        elif f == 2:  # Up
            enc = row - prev
        elif f == 3:  # Average
            left = np.vstack([np.zeros((1, 3), np.int64), row[:-1]])
            enc = row - (left + prev) // 2
        elif f == 4:  # Paeth
            left = np.vstack([np.zeros((1, 3), np.int64), row[:-1]])
            ul = np.vstack([np.zeros((1, 3), np.int64), prev[:-1]])
            enc = row - _paeth(left, prev, ul)
        else:
            raise ValueError(f"bad filter {f}")
        raw.append(f)
        raw.extend((enc % 256).astype(np.uint8).tobytes())
        prev = row
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        _PNG_SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(bytes(raw), 6))
        + _chunk(b"IEND", b"")
    )


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out


def decode_png(payload: bytes) -> np.ndarray:
    """PNG bytes → RGB uint8 (h, w, 3). Supports bit depth 8, color types
    0 (gray, replicated to RGB), 2 (RGB), 6 (RGBA, alpha dropped),
    non-interlaced, all five row filters."""
    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    i, n = 8, len(payload)
    w = h = None
    ctype = None
    idat = bytearray()
    while i + 8 <= n:
        (length,) = struct.unpack(">I", payload[i : i + 4])
        tag = payload[i + 4 : i + 8]
        body = payload[i + 8 : i + 8 + length]
        if tag == b"IHDR":
            w, h, depth, ctype, comp, filt, interlace = struct.unpack(">IIBBBBB", body)
            if depth != 8 or comp != 0 or filt != 0 or interlace != 0:
                raise ValueError("unsupported PNG variant")
            if ctype not in (0, 2, 6):
                raise ValueError(f"unsupported PNG color type {ctype}")
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            break
        i += 12 + length
    if w is None or not idat:
        raise ValueError("truncated PNG")
    nch = {0: 1, 2: 3, 6: 4}[ctype]
    raw = zlib.decompress(bytes(idat))
    stride = 1 + w * nch
    if len(raw) != h * stride:
        raise ValueError("PNG payload size mismatch")
    out = np.zeros((h, w, nch), dtype=np.int64)
    prev = np.zeros((w, nch), dtype=np.int64)
    for y in range(h):
        f = raw[y * stride]
        row = np.frombuffer(raw, np.uint8, w * nch, y * stride + 1).astype(np.int64)
        row = row.reshape(w, nch)
        if f == 0:
            cur = row
        elif f == 2:  # Up — vectorized
            cur = (row + prev) % 256
        else:  # Sub / Average / Paeth — sequential along x
            cur = np.zeros_like(row)
            left = np.zeros(nch, dtype=np.int64)
            ul = np.zeros(nch, dtype=np.int64)
            for x in range(w):
                up = prev[x]
                if f == 1:
                    pred = left
                elif f == 3:
                    pred = (left + up) // 2
                elif f == 4:
                    pred = _paeth(left, up, ul)
                else:
                    raise ValueError(f"bad PNG filter {f}")
                cur[x] = (row[x] + pred) % 256
                left = cur[x]
                ul = up
        out[y] = cur
        prev = cur
    px = out.astype(np.uint8)
    if ctype == 0:
        px = np.repeat(px, 3, axis=2)
    elif ctype == 6:
        px = px[:, :, :3]
    return px


def encode_bmp(pixels: np.ndarray) -> bytes:
    """RGB uint8 (h, w, 3) → 24-bit uncompressed BMP (bottom-up rows,
    BGR byte order, rows padded to 4 bytes)."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, c = px.shape
    if c != 3:
        raise ValueError("encode_bmp expects RGB (h, w, 3)")
    pad = (-3 * w) % 4
    stride = 3 * w + pad
    body = bytearray()
    bgr = px[:, :, ::-1]
    for y in range(h - 1, -1, -1):
        body.extend(bgr[y].tobytes())
        body.extend(b"\x00" * pad)
    size = 14 + 40 + len(body)
    header = (
        b"BM"
        + struct.pack("<IHHI", size, 0, 0, 54)
        + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0)
    )
    return header + bytes(body)


def decode_bmp(payload: bytes) -> np.ndarray:
    """24-bit uncompressed BMP → RGB uint8 (h, w, 3); handles bottom-up and
    top-down (negative height) DIBs."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP")
    (offset,) = struct.unpack("<I", payload[10:14])
    (hdr_size,) = struct.unpack("<I", payload[14:18])
    if hdr_size < 40:
        raise ValueError("unsupported BMP header")
    w, h = struct.unpack("<ii", payload[18:26])
    planes, bpp = struct.unpack("<HH", payload[26:30])
    (compression,) = struct.unpack("<I", payload[30:34])
    if bpp != 24 or compression != 0:
        raise ValueError("unsupported BMP variant (need 24-bit BI_RGB)")
    top_down = h < 0
    h = abs(h)
    pad = (-3 * w) % 4
    stride = 3 * w + pad
    if len(payload) < offset + stride * h:
        raise ValueError("truncated BMP")
    rows = np.frombuffer(payload, np.uint8, stride * h, offset).reshape(h, stride)
    bgr = rows[:, : 3 * w].reshape(h, w, 3)
    if not top_down:
        bgr = bgr[::-1]
    return np.ascontiguousarray(bgr[:, :, ::-1])


def decode_image(payload: bytes) -> np.ndarray:
    """Container dispatch: PNG, BMP or baseline JPEG → RGB uint8 (h, w, 3)."""
    if payload[:8] == _PNG_SIG:
        return decode_png(payload)
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:2] == b"\xff\xd8":
        return decode_jpeg(payload)
    raise ValueError("unrecognized image container")


# ---------------------------------------------------------------------------
# Baseline JPEG (VERDICT r4 item 8). Pure stdlib + numpy, public knowledge
# only (ITU-T T.81 baseline sequential DCT, JFIF color model).
#
# The ENCODER writes valid baseline JFIF with self-describing huffman
# tables: every table is emitted in DHT, so no Annex-K constant tables are
# needed — DC symbols (sizes 0-11) get 4-bit canonical codes, AC symbols
# (the 162 run/size pairs) 8-bit canonical codes. Compression is therefore
# modest but the bitstream is spec-valid and self-contained.
#
# The DECODER is generic baseline: it reads DQT/DHT/SOF0/SOS/DRI from the
# stream (so it also decodes third-party baseline JPEGs with Annex-K
# tables, 4:2:0/4:2:2/4:4:4 sampling, grayscale, restart intervals), does
# vectorized dequant + 2-D IDCT via the orthonormal DCT-II matrix over all
# blocks at once, box-upsamples chroma, and converts JFIF YCbCr→RGB.
# Huffman symbol decoding is a per-symbol Python loop — bounded by the
# thumbnail sizes a feature-extraction stage handles per batch, same
# contract as the PNG sequential unfilter above.
# ---------------------------------------------------------------------------

_ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

_QL_BASE = np.array([
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64).reshape(8, 8)

_QC_BASE = np.array([
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64).reshape(8, 8)


def _dct_mat() -> np.ndarray:
    x = np.arange(8)
    m = np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / 16)
    m[0] *= np.sqrt(0.5)
    return m * 0.5  # orthonormal DCT-II


def _quant_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    q = min(100, max(1, int(quality)))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    ql = np.clip((_QL_BASE * scale + 50) // 100, 1, 255)
    qc = np.clip((_QC_BASE * scale + 50) // 100, 1, 255)
    return ql, qc


_AC_SYMBOLS = [0x00, 0xF0] + [
    (r << 4) | s for r in range(16) for s in range(1, 11)
]


def _canonical_code(lengths: "dict[int, int]") -> tuple[list[int], list[int], dict]:
    """Canonical huffman code for {symbol: bit length}: returns (BITS count
    array for DHT, value list in DHT order, {symbol: (code, length)})."""
    syms = sorted(lengths, key=lambda s: (lengths[s], s))
    bits = [0] * 17
    code_of: dict = {}
    code = 0
    prev_len = lengths[syms[0]]
    for s in syms:
        ln = lengths[s]
        code <<= ln - prev_len
        prev_len = ln
        code_of[s] = (code, ln)
        bits[ln] += 1
        code += 1
    return bits[1:], syms, code_of


_DC_CODE = _canonical_code({s: 4 for s in range(12)})
_AC_CODE = _canonical_code({s: 8 for s in _AC_SYMBOLS})


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.nbits -= 8
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.put((1 << pad) - 1, pad)  # 1-padding per spec
        return bytes(self.out)


def _magnitude(v: int) -> tuple[int, int]:
    """JPEG magnitude category + appended-bits value for a coefficient."""
    if v == 0:
        return 0, 0
    a = abs(v)
    size = a.bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


def _dht_segment(cls: int, tid: int, code) -> bytes:
    bits, vals, _ = code
    body = bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)
    return b"\xff\xc4" + struct.pack(">H", len(body) + 2) + body


def encode_jpeg(pixels: np.ndarray, quality: int = 90, subsample: int = 1) -> bytes:
    """RGB uint8 (h, w, 3) → baseline JFIF bytes. ``subsample`` 1 = 4:4:4,
    2 = 4:2:0 (chroma box-averaged 2×2)."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, c = px.shape
    if c != 3:
        raise ValueError("encode_jpeg expects RGB (h, w, 3)")
    if subsample not in (1, 2):
        raise ValueError("subsample must be 1 (4:4:4) or 2 (4:2:0)")
    ql, qc = _quant_tables(quality)
    r = px[:, :, 0].astype(np.float64)
    g = px[:, :, 1].astype(np.float64)
    b = px[:, :, 2].astype(np.float64)
    yy = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    if subsample == 2:
        eh, ew = -h % 2, -w % 2
        cbp = np.pad(cb, ((0, eh), (0, ew)), mode="edge")
        crp = np.pad(cr, ((0, eh), (0, ew)), mode="edge")
        cb = cbp.reshape(cbp.shape[0] // 2, 2, cbp.shape[1] // 2, 2).mean(axis=(1, 3))
        cr = crp.reshape(crp.shape[0] // 2, 2, crp.shape[1] // 2, 2).mean(axis=(1, 3))

    M = _dct_mat()

    def comp_blocks(plane: np.ndarray, q: np.ndarray, bw: int, bh: int):
        """Quantized coefficient blocks in raster order, padded to
        (bh*8, bw*8) with edge replication."""
        ph, pw = plane.shape
        plane = np.pad(plane, ((0, bh * 8 - ph), (0, bw * 8 - pw)), mode="edge")
        blk = plane.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3) - 128.0
        coef = np.einsum("ux,nmxy,vy->nmuv", M, blk, M)
        # clamp to the baseline-codable coefficient range (T.81 8-bit mode):
        # at quality 100 the quant step is 1 and a raw DCT coefficient can
        # reach ±1024, whose DC diff (size 12) / AC magnitude (size 11)
        # have no huffman category in baseline tables
        q_coef = np.clip(np.round(coef / q), -1023, 1023)
        return q_coef.astype(np.int64).reshape(bh * bw, 8, 8)

    if subsample == 1:
        by, bx = -(-h // 8), -(-w // 8)
        planes = [
            (comp_blocks(yy, ql, bx, by), bx, by),
            (comp_blocks(cb, qc, bx, by), bx, by),
            (comp_blocks(cr, qc, bx, by), bx, by),
        ]
        samp = [(1, 1), (1, 1), (1, 1)]
        mcux, mcuy = bx, by
        mcu_blocks = [(0, 1, 1), (1, 1, 1), (2, 1, 1)]
    else:
        mcux, mcuy = -(-w // 16), -(-h // 16)
        planes = [
            (comp_blocks(yy, ql, 2 * mcux, 2 * mcuy), 2 * mcux, 2 * mcuy),
            (comp_blocks(cb, qc, mcux, mcuy), mcux, mcuy),
            (comp_blocks(cr, qc, mcux, mcuy), mcux, mcuy),
        ]
        samp = [(2, 2), (1, 1), (1, 1)]
        mcu_blocks = [(0, 2, 2), (1, 1, 1), (2, 1, 1)]

    _, _, dc_code = _DC_CODE
    _, _, ac_code = _AC_CODE
    bwr = _BitWriter()
    pred = [0, 0, 0]
    zz = _ZIGZAG
    for my in range(mcuy):
        for mx in range(mcux):
            for ci, hs, vs in mcu_blocks:
                blocks, bw_c, _bh_c = planes[ci]
                for dy in range(vs):
                    for dx in range(hs):
                        bxi = mx * hs + dx
                        byi = my * vs + dy
                        blk = blocks[byi * bw_c + bxi].reshape(64)[zz]
                        diff = int(blk[0]) - pred[ci]
                        pred[ci] = int(blk[0])
                        size, bits_v = _magnitude(diff)
                        code, ln = dc_code[size]
                        bwr.put(code, ln)
                        if size:
                            bwr.put(bits_v, size)
                        run = 0
                        nz = np.flatnonzero(blk[1:])
                        pos = 0
                        for k in nz:
                            run = int(k) - pos
                            while run >= 16:
                                code, ln = ac_code[0xF0]
                                bwr.put(code, ln)
                                run -= 16
                            size, bits_v = _magnitude(int(blk[1 + k]))
                            code, ln = ac_code[(run << 4) | size]
                            bwr.put(code, ln)
                            bwr.put(bits_v, size)
                            pos = int(k) + 1
                        if pos < 63:
                            code, ln = ac_code[0x00]
                            bwr.put(code, ln)
    entropy = bwr.flush()

    def dqt(tid: int, q: np.ndarray) -> bytes:
        body = bytes([tid]) + bytes(q.reshape(64)[zz].astype(np.uint8))
        return b"\xff\xdb" + struct.pack(">H", len(body) + 2) + body

    sof_comps = b"".join(
        bytes([i + 1, (samp[i][0] << 4) | samp[i][1], 0 if i == 0 else 1])
        for i in range(3)
    )
    sof = b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * 3, 8, h, w, 3) + sof_comps
    sos_comps = b"".join(bytes([i + 1, 0x00 if i == 0 else 0x11]) for i in range(3))
    sos = b"\xff\xda" + struct.pack(">HB", 6 + 2 * 3, 3) + sos_comps + b"\x00\x3f\x00"
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    return (
        b"\xff\xd8" + app0 + dqt(0, ql) + dqt(1, qc)
        + _dht_segment(0, 0, _DC_CODE) + _dht_segment(1, 0, _AC_CODE)
        + _dht_segment(0, 1, _DC_CODE) + _dht_segment(1, 1, _AC_CODE)
        + sof + sos + entropy + b"\xff\xd9"
    )


class _BitReader:
    """MSB-first bit reader over unstuffed entropy bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def bit(self) -> int:
        if self.nbits == 0:
            if self.pos >= len(self.data):
                raise ValueError("truncated JPEG entropy stream")
            self.acc = self.data[self.pos]
            self.pos += 1
            self.nbits = 8
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v


def _huff_decoder(bits: bytes, vals: bytes):
    """DHT (BITS, HUFFVAL) → {(length, code): symbol} canonical table."""
    table = {}
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            table[(ln, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return table


def _read_symbol(br: _BitReader, table: dict) -> int:
    code = 0
    for ln in range(1, 17):
        code = (code << 1) | br.bit()
        s = table.get((ln, code))
        if s is not None:
            return s
    raise ValueError("invalid huffman code in JPEG stream")


def _extend(v: int, size: int) -> int:
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Baseline sequential JPEG → RGB uint8 (h, w, 3). Generic: reads
    quant/huffman tables from the stream, supports 1 or 3 components, any
    1-2 sampling factors (4:4:4 / 4:2:2 / 4:2:0), restart intervals.
    Progressive (SOF2), arithmetic coding and 12-bit are rejected."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG")
    i, n = 2, len(payload)
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], dict] = {}
    comps = None  # [(cid, hs, vs, tq)]
    w = h = None
    dri = 0
    scan = None
    while i + 4 <= n:
        if payload[i] != 0xFF:
            raise ValueError("bad JPEG marker stream")
        m = payload[i + 1]
        if m == 0xFF:  # fill byte: any marker may be preceded by 0xFF runs
            i += 1
            continue
        if m == 0xD9:
            break
        if m == 0x01 or 0xD0 <= m <= 0xD8:  # standalone: no length field
            i += 2
            continue
        (length,) = struct.unpack(">H", payload[i + 2 : i + 4])
        if i + 2 + length > n:
            raise ValueError("truncated JPEG segment")
        body = payload[i + 4 : i + 2 + length]
        if m == 0xDB:
            j = 0
            while j < len(body):
                pq, tq = body[j] >> 4, body[j] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                tab = np.zeros(64, dtype=np.int64)
                tab[_ZIGZAG] = np.frombuffer(body, np.uint8, 64, j + 1)
                qt[tq] = tab.reshape(8, 8)
                j += 65
        elif m == 0xC4:
            j = 0
            while j < len(body):
                cls, tid = body[j] >> 4, body[j] & 0xF
                bits = body[j + 1 : j + 17]
                nv = sum(bits)
                vals = body[j + 17 : j + 17 + nv]
                huff[(cls, tid)] = _huff_decoder(bits, vals)
                j += 17 + nv
        elif m == 0xC0 or m == 0xC1:
            depth, h, w, nc = body[0], *struct.unpack(">HH", body[1:5]), body[5]
            if depth != 8:
                raise ValueError("only 8-bit JPEG supported")
            comps = []
            for k in range(nc):
                cid, hv, tq = body[6 + 3 * k : 9 + 3 * k]
                comps.append((cid, hv >> 4, hv & 0xF, tq))
        elif m in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("non-baseline JPEG (progressive/arithmetic) unsupported")
        elif m == 0xDD:
            (dri,) = struct.unpack(">H", body[:2])
        elif m == 0xDA:
            ns = body[0]
            scan = {}
            for k in range(ns):
                cid, tabs = body[1 + 2 * k], body[2 + 2 * k]
                scan[cid] = (tabs >> 4, tabs & 0xF)
            i = i + 2 + length
            break
        i += 2 + length
    if comps is None or scan is None or w is None:
        raise ValueError("truncated JPEG (no SOF/SOS)")

    # split entropy data on restart markers, unstuff 0xFF00
    segments: list[bytes] = []
    cur = bytearray()
    j = i
    while j < n:
        b0 = payload[j]
        if b0 == 0xFF:
            m2 = payload[j + 1] if j + 1 < n else 0
            if m2 == 0x00:
                cur.append(0xFF)
                j += 2
                continue
            if m2 == 0xFF:  # fill byte before a marker
                j += 1
                continue
            if 0xD0 <= m2 <= 0xD7:
                segments.append(bytes(cur))
                cur = bytearray()
                j += 2
                continue
            break  # EOI or next marker
        cur.append(b0)
        j += 1
    segments.append(bytes(cur))

    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    n_mcus = mcux * mcuy
    blocks = {}
    bw_of = {}
    for cid, hs, vs, _tq in comps:
        bw_of[cid] = mcux * hs
        blocks[cid] = np.zeros((mcux * hs * mcuy * vs, 64), dtype=np.int64)

    seg_idx = 0
    br = _BitReader(segments[0])
    pred = {cid: 0 for cid, *_ in comps}
    for mi in range(n_mcus):
        if dri and mi and mi % dri == 0:
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("missing JPEG restart segment")
            br = _BitReader(segments[seg_idx])
            pred = {cid: 0 for cid, *_ in comps}
        my, mx = divmod(mi, mcux)
        for cid, hs, vs, _tq in comps:
            dct, act = scan[cid]
            dtab, atab = huff[(0, dct)], huff[(1, act)]
            for dy in range(vs):
                for dx in range(hs):
                    blk = np.zeros(64, dtype=np.int64)
                    size = _read_symbol(br, dtab)
                    diff = _extend(br.bits(size), size) if size else 0
                    pred[cid] += diff
                    blk[0] = pred[cid]
                    k = 1
                    while k < 64:
                        s = _read_symbol(br, atab)
                        if s == 0x00:
                            break
                        run, size = s >> 4, s & 0xF
                        if size == 0:
                            if run != 15:
                                raise ValueError("bad AC symbol")
                            k += 16
                            continue
                        k += run
                        if k > 63:
                            raise ValueError("AC run overflow")
                        blk[k] = _extend(br.bits(size), size)
                        k += 1
                    byi, bxi = my * vs + dy, mx * hs + dx
                    blocks[cid][byi * bw_of[cid] + bxi] = blk

    M = _dct_mat()
    planes = {}
    for cid, hs, vs, tq in comps:
        bw_c = mcux * hs
        bh_c = mcuy * vs
        zz = np.zeros((bh_c * bw_c, 8, 8), dtype=np.int64)
        zz.reshape(-1, 64)[:, _ZIGZAG] = blocks[cid]
        coef = zz * qt[tq][None, :, :]
        spat = np.einsum("xu,nuv,yv->nxy", M.T, coef.astype(np.float64), M.T) + 128.0
        plane = (
            spat.reshape(bh_c, bw_c, 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(bh_c * 8, bw_c * 8)
        )
        # upsample to full resolution (pixel replication) and crop
        plane = np.repeat(np.repeat(plane, vmax // vs, axis=0), hmax // hs, axis=1)
        planes[cid] = plane[:h, :w]

    if len(comps) == 1:
        yv = np.clip(planes[comps[0][0]], 0, 255).astype(np.uint8)
        return np.repeat(yv[:, :, None], 3, axis=2)
    cy, ccb, ccr = (planes[c[0]] for c in comps)
    r = cy + 1.402 * (ccr - 128.0)
    g = cy - 0.344136 * (ccb - 128.0) - 0.714136 * (ccr - 128.0)
    b = cy + 1.772 * (ccb - 128.0)
    return np.clip(np.stack([r, g, b], axis=2), 0, 255).astype(np.uint8)

"""Independent brute-force oracles used by the test suite.

Everything here, up to the byte references at the end, is written as plain
loops over the mathematical definitions, deliberately sharing no code with the
implementation under test.
"""

import csv
import math
from pathlib import Path

import numpy as np

from semicl import autodiff as ad
from semicl.data import UNLABELED, SemiLabeledDataset, _count_newlines, _expected_header
from semicl.errors import DataError, LabelError, ParseError, SchemaError


def cosine(a, b) -> float:
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def ntxent_simclr(zi, zj, tau) -> float:
    """2N anchors; denominator over the other 2N-2 embeddings."""
    z = list(zi) + list(zj)
    n = len(zi)
    m = 2 * n
    total = 0.0
    for a in range(m):
        p = (a + n) % m
        num = math.exp(cosine(z[a], z[p]) / tau)
        den = 0.0
        for k in range(m):
            if k != a and k != p:
                den += math.exp(cosine(z[a], z[k]) / tau)
        total += -math.log(num / den)
    return total / m


def ntxent_paired_only(zi, zj, tau) -> float:
    """N first-view anchors; denominator over other samples' j-view embeddings."""
    n = len(zi)
    total = 0.0
    for a in range(n):
        num = math.exp(cosine(zi[a], zj[a]) / tau)
        den = 0.0
        for k in range(n):
            if k != a:
                den += math.exp(cosine(zi[a], zj[k]) / tau)
        total += -math.log(num / den)
    return total / n


def supcon_ratio_of_sums(z, y, tau) -> float:
    """Literal -log(sum_pos / sum_neg) averaged over non-degenerate anchors."""
    m = len(y)
    losses = []
    for a in range(m):
        pos = [p for p in range(m) if p != a and y[p] == y[a]]
        neg = [k for k in range(m) if y[k] != y[a]]
        if not pos or not neg:
            continue
        num = sum(math.exp(cosine(z[a], z[p]) / tau) for p in pos)
        den = sum(math.exp(cosine(z[a], z[k]) / tau) for k in neg)
        losses.append(-math.log(num / den))
    if not losses:
        raise ValueError("all anchors degenerate")
    return sum(losses) / len(losses)


def _logsumexp(values) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def ntxent_simclr_log(zi, zj, tau) -> float:
    """`ntxent_simclr` summed in log space, finite at any tau > 0."""
    z = list(zi) + list(zj)
    n = len(zi)
    m = 2 * n
    total = 0.0
    for a in range(m):
        p = (a + n) % m
        den = [cosine(z[a], z[k]) / tau for k in range(m) if k != a and k != p]
        total += _logsumexp(den) - cosine(z[a], z[p]) / tau
    return total / m


def supcon_ratio_of_sums_log(z, y, tau) -> float:
    """`supcon_ratio_of_sums` summed in log space, finite at any tau > 0."""
    m = len(y)
    losses = []
    for a in range(m):
        pos = [cosine(z[a], z[p]) / tau for p in range(m) if p != a and y[p] == y[a]]
        neg = [cosine(z[a], z[k]) / tau for k in range(m) if y[k] != y[a]]
        if pos and neg:
            losses.append(_logsumexp(neg) - _logsumexp(pos))
    return sum(losses) / len(losses)


def softmax_cross_entropy(logits, y) -> float:
    total = 0.0
    for i, row in enumerate(logits):
        e = [math.exp(v) for v in row]
        total += -math.log(e[y[i]] / sum(e))
    return total / len(y)


def conv1d_direct(x, w, bias=None, dilation=1, padding=0):
    """Nested-loop correlation for (B, C, L) input and (O, I, K) kernel."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    b_n, c_in, length = x.shape
    c_out, _, k = w.shape
    xp = np.zeros((b_n, c_in, length + 2 * padding))
    xp[:, :, padding: padding + length] = x
    out_len = length + 2 * padding - (k - 1) * dilation
    out = np.zeros((b_n, c_out, out_len))
    for b in range(b_n):
        for o in range(c_out):
            for t in range(out_len):
                acc = 0.0
                for i in range(c_in):
                    for kk in range(k):
                        acc += w[o, i, kk] * xp[b, i, t + kk * dilation]
                out[b, o, t] = acc + (bias[o] if bias is not None else 0.0)
    return out


def depthwise_conv1d_direct(x, w, bias=None, dilation=1, padding=0):
    """Nested-loop per-channel correlation; output channel c*M + m."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    b_n, c, length = x.shape
    _, mult, k = w.shape
    xp = np.zeros((b_n, c, length + 2 * padding))
    xp[:, :, padding: padding + length] = x
    out_len = length + 2 * padding - (k - 1) * dilation
    out = np.zeros((b_n, c * mult, out_len))
    for b in range(b_n):
        for ch in range(c):
            for m in range(mult):
                for t in range(out_len):
                    acc = 0.0
                    for kk in range(k):
                        acc += w[ch, m, kk] * xp[b, ch, t + kk * dilation]
                    oc = ch * mult + m
                    out[b, oc, t] = acc + (bias[oc] if bias is not None else 0.0)
    return out


def correlate_tap_loop(x, w, bias, g, depthwise, dilation=1, padding=0):
    """The convolutions' original tap loop, kept as the byte reference.

    Zero-filled accumulators, one product per kernel tap, a scatter into a
    zero-filled padded input gradient and the depthwise kernel gradient as
    `einsum(..., optimize=True)`. `x` is (..., C_in, L) and `g` the upstream
    gradient of the output. Returns the output and the input, kernel and bias
    gradients (the last None without a bias).
    """
    k = w.shape[2]
    c_in, c_out = (w.shape[0], w.shape[0] * w.shape[1]) if depthwise else (w.shape[1], w.shape[0])
    length = x.shape[-1]
    out_len = length + 2 * padding - (k - 1) * dilation
    if depthwise:
        def fwd_tap(wk, xt):
            return xt[:, :, None, :] * wk[None, :, :, None]

        def dx_tap(wk, g):
            return np.einsum("ncml,cm->ncl", g, wk)

        def dw_tap(g, xt):
            return np.einsum("bcml,bcl->cm", g, xt, optimize=True)
    else:
        fwd_tap = np.matmul

        def dx_tap(wk, g):
            return np.matmul(wk.T, g)

        def dw_tap(g, xt):
            return np.matmul(g, xt.transpose(0, 2, 1)).sum(axis=0)

    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(padding, padding)]) if padding else x
    x3 = xp.reshape(-1, c_in, xp.shape[-1])
    taps = [np.s_[:, :, s: s + out_len] for s in range(0, k * dilation, dilation)]
    out_channels = w.shape[:2] if depthwise else (c_out,)
    acc = np.zeros((x3.shape[0],) + out_channels + (out_len,))
    for kk, tap in enumerate(taps):
        acc += fwd_tap(w[:, :, kk], x3[tap])
    out = acc.reshape(x3.shape[0], c_out, out_len)
    if bias is not None:
        out += bias[:, None]

    gs = g.reshape(acc.shape)
    dxp = np.zeros_like(x3)
    dw = np.zeros_like(w)
    for kk, tap in enumerate(taps):
        dxp[tap] += dx_tap(w[:, :, kk], gs)
        dw[:, :, kk] = dw_tap(gs, x3[tap])
    dx = dxp.reshape(xp.shape)[..., padding: padding + length]
    db = None if bias is None else gs.sum(axis=(0, -1)).reshape(c_out)
    return out.reshape(x.shape[:-2] + (c_out, out_len)), dx.reshape(x.shape), dw, db


def avg_pool_direct(x, g, window):
    """Per-window loop: pooled output, and the input gradient of sum(output * g).

    Positions past the last whole window take no part and get zero gradient.
    """
    x = np.asarray(x, dtype=float).reshape(-1, np.shape(x)[-1])
    g = np.asarray(g, dtype=float).reshape(x.shape[0], -1)
    out_len = x.shape[1] // window
    out = np.zeros((x.shape[0], out_len))
    dx = np.zeros(x.shape)
    for r in range(x.shape[0]):
        for i in range(out_len):
            for j in range(i * window, (i + 1) * window):
                out[r, i] += x[r, j] / window
                dx[r, j] = g[r, i] / window
    return out, dx


def cross_sensor_direct(h, w, bias):
    """Correlation across the sensors of (B, S, F, T), zero-padded to keep S.

    One output sensor and one kernel tap at a time: output sensor s sums tap k
    of `w` (O, I, K) over the features of padded sensor s + k, at every time step.
    """
    pad = (w.shape[2] - 1) // 2
    hp = np.zeros((h.shape[0], h.shape[1] + 2 * pad) + h.shape[2:])
    hp[:, pad: pad + h.shape[1]] = h
    out = np.zeros(h.shape[:2] + (w.shape[0], h.shape[3]))
    for s in range(h.shape[1]):
        for kk in range(w.shape[2]):
            out[:, s] += np.einsum("oi,bit->bot", w[:, :, kk], hp[:, s + kk])
        out[:, s] += bias[:, None]
    return out


def encode_direct(params, x, cfg):
    """Embeddings (B, embed_dim) of x (B, sensors, L), written from the `semicl.nn` docstring.

    `params` maps the model's parameter names to arrays; `cfg` gives one
    dilation per block. Each block runs, on every sensor's (B, F, T) plane,
    a pointwise and a dilated 3-tap temporal convolution (padding = dilation),
    then a convolution across the sensors (3 taps, padding 1, with two or more
    sensors; 1 tap with one), then a depthwise convolution (multiplier 2,
    padding 1), each followed by relu, and a window-2 average pool over time.
    The mean over time, flattened sensor-major, goes through the linear head.
    Calls neither `semicl.nn` nor `semicl.autodiff`.
    """
    p = {name: np.asarray(a, dtype=float) for name, a in params.items()}
    h = np.asarray(x, dtype=float)[:, :, None, :]
    b_n, sensors = h.shape[:2]

    def per_sensor(conv, h, name, **kwargs):
        return np.stack([conv(h[:, s], p[name + ".w"], p[name + ".b"], **kwargs)
                         for s in range(sensors)], axis=1)

    for i, d in enumerate(cfg.dilations):
        pre = f"enc.b{i}"
        h = np.maximum(per_sensor(conv1d_direct, h, pre + ".pw"), 0.0)
        h = np.maximum(per_sensor(conv1d_direct, h, pre + ".temporal", dilation=d, padding=d), 0.0)
        assert p[pre + ".cross.w"].shape[2] == (3 if sensors >= 2 else 1)
        h = np.maximum(cross_sensor_direct(h, p[pre + ".cross.w"], p[pre + ".cross.b"]), 0.0)
        h = np.maximum(per_sensor(depthwise_conv1d_direct, h, pre + ".depthwise", padding=1), 0.0)
        pooled, _ = avg_pool_direct(h, np.zeros(h.shape[:3] + (h.shape[3] // 2,)), 2)
        h = pooled.reshape(h.shape[:3] + (-1,))
    return h.mean(axis=3).reshape(b_n, -1) @ p["enc.head.w"] + p["enc.head.b"]


def auroc_pairwise(labels, scores) -> float:
    """Exhaustive pairwise comparisons; ties count one half (binary)."""
    pos = [s for s, t in zip(scores, labels) if t]
    neg = [s for s, t in zip(scores, labels) if not t]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auroc_midrank_loop(pos_scores, neg_scores) -> float:
    """Mann-Whitney statistic, midranks assigned by walking each run of ties."""
    scores = np.concatenate([pos_scores, neg_scores])
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc_threshold_sweep(labels, scores) -> float:
    """Exhaustive enumeration of thresholds; rectangular area (binary)."""
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(1 for t in labels if t)
    prev_recall = 0.0
    area = 0.0
    for thr in thresholds:
        tp = sum(1 for s, t in zip(scores, labels) if s >= thr and t)
        fp = sum(1 for s, t in zip(scores, labels) if s >= thr and not t)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def macro_ovr(y, scores, binary_fn) -> float:
    y = list(y)
    values = []
    for c in range(np.asarray(scores).shape[1]):
        flags = [int(t == c) for t in y]
        if sum(flags) == 0 or sum(flags) == len(flags):
            continue
        values.append(binary_fn(flags, [row[c] for row in np.asarray(scores)]))
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Byte references, unlike the loops above: the three losses composed from the
# generic autodiff ops, one op per numpy expression. The losses' fused row op
# must give the same bytes, value and gradients, as these chains.
# ---------------------------------------------------------------------------

def masked_logsumexp_chain(scores, mask):
    """Per-row masked log-sum-exp as six generic ops: sub, exp, mul, sum, log, add."""
    mask = mask.astype(np.float64)
    empty = mask.sum(axis=1) == 0
    if empty.any():
        mask = mask.copy()
        mask[empty, :] = 1.0
    shift = np.where(mask > 0, scores.data, -np.inf).max(axis=1, keepdims=True)
    e = ad.exp(ad.sub(scores, ad.Tensor(np.where(mask > 0, shift, np.inf))))
    total = ad.sum(ad.mul(e, ad.Tensor(mask)), axis=1)
    return ad.add(ad.log(total), ad.Tensor(shift[:, 0]))


def _picked_chain(scores, onehot):
    return ad.sum(ad.mul(scores, ad.Tensor(onehot)), axis=1)


def unsup_contrastive_chain(zi, zj, tau, denominator="simclr"):
    n = zi.shape[0]
    if denominator == "paired_only":
        a, b = zi, zj
        pos_mask = np.eye(n)
    else:
        a = b = ad.concat([zi, zj], axis=0)
        idx = np.arange(2 * n)
        pos_mask = np.zeros((2 * n, 2 * n))
        pos_mask[idx, (idx + n) % (2 * n)] = 1.0
    neg_mask = 1.0 - pos_mask
    np.fill_diagonal(neg_mask, 0.0)
    sim = ad.mul_scalar(ad.cosine_similarity_matrix(a, b), 1.0 / tau)
    pos = _picked_chain(sim, pos_mask)
    return ad.mean(ad.sub(masked_logsumexp_chain(sim, neg_mask), pos))


def sup_contrastive_chain(z, labels, tau):
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    pos_mask = same.astype(np.float64)
    np.fill_diagonal(pos_mask, 0.0)
    neg_mask = (~same).astype(np.float64)
    valid = (pos_mask.sum(axis=1) > 0) & (neg_mask.sum(axis=1) > 0)
    sim = ad.mul_scalar(ad.cosine_similarity_matrix(z, z), 1.0 / tau)
    lse_pos = masked_logsumexp_chain(sim, pos_mask)
    lse_neg = masked_logsumexp_chain(sim, neg_mask)
    weights = valid.astype(np.float64) / valid.sum()
    return ad.sum(ad.mul(ad.sub(lse_neg, lse_pos), ad.Tensor(weights)))


def cross_entropy_chain(logits, labels):
    m, c = logits.shape
    onehot = np.zeros((m, c))
    onehot[np.arange(m), labels] = 1.0
    lse = masked_logsumexp_chain(logits, np.ones((m, c)))
    return ad.mean(ad.sub(lse, _picked_chain(logits, onehot)))


# ---------------------------------------------------------------------------
# Byte reference for CSV ingestion: the row-wise loader that block parsing
# replaced. `load_csv` must give the same columns, or the same error class
# naming the same line.
# ---------------------------------------------------------------------------

def load_csv_rowwise(manifest_path) -> SemiLabeledDataset:
    """`semicl.data.load_csv` as it was before block parsing: each row split by
    `csv.reader` and its values converted by one `np.array` call."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    try:
        lines = manifest_path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{manifest_path}: not UTF-8 text ({e})") from e
    entries = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise SchemaError(f"{manifest_path}:{ln}: manifest line needs path,num_classes,channels,length")
        try:
            entries.append((parts[0], int(parts[1]), int(parts[2]), int(parts[3])))
        except ValueError as e:
            raise SchemaError(f"{manifest_path}:{ln}: {e}") from e
    if not entries:
        raise DataError(f"{manifest_path}: empty manifest")
    _, num_classes, channels, length = entries[0]
    if channels < 1 or length < 1 or any(e[1:] != (num_classes, channels, length) for e in entries):
        raise SchemaError(f"{manifest_path}: entries need channels >= 1, length >= 1 and one "
                          "num_classes/channels/length")

    paths = [base / e[0] for e in entries]
    # A data row follows a newline and holds `length` values with a comma
    # before each, so 2 * length bytes; a complete sample takes `channels` rows.
    rows = sum(min(_count_newlines(path), path.stat().st_size // (2 * length)) for path in paths)
    capacity = rows // channels
    if capacity < 1:
        raise SchemaError(f"{manifest_path}: the files are too short to hold one sample of "
                          f"{channels} channels x {length} values")
    values = np.empty((capacity, channels, length), dtype=np.float64)
    labels = np.empty(capacity, dtype=np.int64)
    subjects, trials = [""] * capacity, [""] * capacity
    seen = np.zeros((capacity, channels), dtype=bool)
    n = 0
    for path in paths:
        ids: dict[str, int] = {}
        for ln, row in _data_rows(path, length):
            if len(row) != 5 + length:
                raise ParseError(f"{path}:{ln}: expected {5 + length} fields, got {len(row)}")
            sample_id, subject_id, trial_id, label_s, channel_s = row[:5]
            try:
                label = int(label_s)
                channel = int(channel_s)
                row_values = np.array(row[5:], dtype=np.float64)
            except ValueError as e:
                raise ParseError(f"{path}:{ln}: {e}") from e
            if not np.isfinite(row_values).all():
                raise ParseError(f"{path}:{ln}: non-finite sample value")
            if label != UNLABELED and not (0 <= label < num_classes):
                raise LabelError(f"{path}:{ln}: label {label} outside [0, {num_classes})")
            if not (0 <= channel < channels):
                raise SchemaError(f"{path}:{ln}: channel {channel} outside [0, {channels})")
            i = ids.setdefault(sample_id, n + len(ids))
            if i == capacity:
                raise SchemaError(f"{path}:{ln}: more samples than rows for {channels} channels "
                                  "each; some sample is missing channel rows")
            if not seen[i].any():
                subjects[i], trials[i], labels[i] = subject_id, trial_id, label
            elif (subjects[i], trials[i], labels[i]) != (subject_id, trial_id, label):
                raise SchemaError(f"{path}:{ln}: rows of sample {sample_id} disagree on metadata")
            elif seen[i, channel]:
                raise SchemaError(f"{path}:{ln}: duplicate channel {channel} for sample {sample_id}")
            values[i, channel] = row_values
            seen[i, channel] = True
        if not ids:
            raise DataError(f"{path}: no data rows")
        missing = np.flatnonzero(~seen[n: n + len(ids)].all(axis=1))
        if missing.size:
            raise SchemaError(f"{path}: sample {list(ids)[missing[0]]} is missing channel rows")
        n += len(ids)
    return SemiLabeledDataset(values[:n], labels[:n], subjects[:n], trials[:n], num_classes)


def _data_rows(path: Path, length: int):
    """(line number, fields) of each non-empty row after a header checked against `length`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if len(header) != 5 + length or header != _expected_header(length):
                raise SchemaError(f"{path}: header does not match the sample schema for length {length}")
            for ln, row in enumerate(reader, start=2):
                if row:
                    yield ln, row
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e})") from e

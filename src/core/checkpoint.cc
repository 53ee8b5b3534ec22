#include "core/checkpoint.h"

#include "util/record_file.h"

namespace sepriv {
namespace {

// "SEPRIVCK" as a little-endian u64, followed by a format version. Bumping
// the version invalidates old checkpoints instead of misreading them.
constexpr uint64_t kCheckpointMagic = 0x4b43564952504553ULL;
// v2: storage-mode word after config_digest, and a per-matrix precision tag
// selecting a float64 or (lossless, see header) float32 payload.
constexpr uint64_t kCheckpointVersion = 2;

// Per-matrix precision tags.
constexpr uint64_t kPrecisionF64 = 0;
constexpr uint64_t kPrecisionF32 = 1;

void PutMatrix(RecordWriter& w, const Matrix& m, uint64_t precision) {
  w.Put(static_cast<uint64_t>(m.rows()));
  w.Put(static_cast<uint64_t>(m.cols()));
  w.Put(uint64_t{m.dp_sanitized() ? 1u : 0u});
  w.Put(precision);
  if (precision == kPrecisionF32) {
    // Lossless by contract: the trainer rounded every entry to float32
    // before saving, so the narrowing here drops no bits.
    const double* src = m.data();
    for (size_t i = 0; i < m.size(); ++i) w.Put(static_cast<float>(src[i]));
  } else {
    w.PutBytes(m.data(), m.size() * sizeof(double));
  }
}

bool GetMatrix(RecordReader& r, Matrix* m) {
  const uint64_t rows = r.Get<uint64_t>();
  const uint64_t cols = r.Get<uint64_t>();
  const uint64_t sanitized = r.Get<uint64_t>();
  const uint64_t precision = r.Get<uint64_t>();
  if (!r.ok()) return false;
  if (precision != kPrecisionF64 && precision != kPrecisionF32) return false;
  // Geometry against the bytes left before the allocation: a corrupt header
  // must not drive a multi-gigabyte resize.
  const size_t elem_bytes =
      precision == kPrecisionF32 ? sizeof(float) : sizeof(double);
  if (cols == 0 || rows > r.remaining() / elem_bytes / cols) return false;
  *m = Matrix(rows, cols);
  if (precision == kPrecisionF32) {
    double* dst = m->data();
    for (size_t i = 0; i < m->size(); ++i) {
      dst[i] = static_cast<double>(r.Get<float>());  // exact widening
    }
  } else {
    r.GetBytes(m->data(), m->size() * sizeof(double));
  }
  if (sanitized != 0) m->MarkDpSanitized();
  return r.ok();
}

}  // namespace

Status SaveCheckpoint(const TrainCheckpoint& ckpt, const std::string& path) {
  if (path.empty()) {
    return FailedPreconditionError("checkpoint path is empty");
  }
  const uint64_t precision =
      ckpt.storage == EmbeddingStorage::kFloat32 ? kPrecisionF32
                                                 : kPrecisionF64;
  const size_t elem_bytes =
      precision == kPrecisionF32 ? sizeof(float) : sizeof(double);
  // The record frame adds the magic, the version and the whole-file
  // checksum: a torn or rotted checkpoint is rejected at load, never
  // resumed from. The payload is 22 fixed words (scalars, Rng state, curve
  // length, two matrix headers) plus the curve and both matrices.
  RecordWriter w(kCheckpointMagic, kCheckpointVersion,
                 22 * sizeof(uint64_t) +
                     ckpt.loss_curve.size() * sizeof(double) +
                     (ckpt.w_in.size() + ckpt.w_out.size()) * elem_bytes);
  w.Put(ckpt.graph_fingerprint);
  w.Put(ckpt.config_digest);
  w.Put(precision);
  w.Put(ckpt.epochs_run);
  w.Put(ckpt.accountant_steps);
  w.Put(ckpt.noise_multiplier);
  w.Put(ckpt.sampling_rate);
  for (uint64_t word : ckpt.rng.s) w.Put(word);
  w.Put(ckpt.rng.cached);
  w.Put(uint64_t{ckpt.rng.has_cached ? 1u : 0u});
  w.Put(static_cast<uint64_t>(ckpt.loss_curve.size()));
  w.PutBytes(ckpt.loss_curve.data(), ckpt.loss_curve.size() * sizeof(double));
  PutMatrix(w, ckpt.w_in, precision);
  PutMatrix(w, ckpt.w_out, precision);
  return w.Publish(path, "checkpoint");
}

Status LoadCheckpoint(const std::string& path, TrainCheckpoint* out) {
  RecordReader r;
  SEPRIV_RETURN_IF_ERROR(
      r.Open(path, kCheckpointMagic, kCheckpointVersion, "checkpoint"));
  out->graph_fingerprint = r.Get<uint64_t>();
  out->config_digest = r.Get<uint64_t>();
  const uint64_t storage_word = r.Get<uint64_t>();
  if (storage_word != kPrecisionF64 && storage_word != kPrecisionF32) {
    return CorruptionError(path + ": unknown storage mode");
  }
  out->storage = storage_word == kPrecisionF32 ? EmbeddingStorage::kFloat32
                                               : EmbeddingStorage::kFloat64;
  out->epochs_run = r.Get<uint64_t>();
  out->accountant_steps = r.Get<uint64_t>();
  out->noise_multiplier = r.Get<double>();
  out->sampling_rate = r.Get<double>();
  for (uint64_t& word : out->rng.s) word = r.Get<uint64_t>();
  out->rng.cached = r.Get<double>();
  out->rng.has_cached = r.Get<uint64_t>() != 0;
  out->loss_curve.resize(r.GetCount(sizeof(double)));
  if (!r.ok()) return CorruptionError(path + ": implausible loss-curve length");
  r.GetBytes(out->loss_curve.data(),
             out->loss_curve.size() * sizeof(double));
  if (!GetMatrix(r, &out->w_in) || !GetMatrix(r, &out->w_out)) {
    return CorruptionError(path + ": malformed model matrices");
  }
  if (!r.Done()) return CorruptionError(path + ": trailing bytes");
  return OkStatus();
}

}  // namespace sepriv

#include "nn/gpt.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/bf16.hpp"
#include "tensor/ops.hpp"
#include "util/checksum.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace astromlab::nn {

using tensor::sgemm;

namespace {

constexpr float kLnEps = 1e-5f;

/// Prompt tokens fed (`GptInference::prompt`) and LM-head rows computed
/// (one per logit vector, serial or batched).
struct InferenceMetrics {
  util::metrics::Counter& prefill_tokens;
  util::metrics::Counter& logit_rows;
};

InferenceMetrics& inference_metrics() {
  static InferenceMetrics m{util::metrics::registry().counter("nn.prefill_tokens"),
                            util::metrics::registry().counter("nn.logit_rows")};
  return m;
}

void layernorm_forward(float* out, float* mean, float* rstd, const float* x, const float* gain,
                       const float* bias, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* outr = out + r * cols;
    double m = 0.0;
    for (std::size_t c = 0; c < cols; ++c) m += xr[c];
    m /= static_cast<double>(cols);
    double var = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double d = xr[c] - m;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float rs = static_cast<float>(1.0 / std::sqrt(var + kLnEps));
    const float mf = static_cast<float>(m);
    for (std::size_t c = 0; c < cols; ++c) {
      outr[c] = (xr[c] - mf) * rs * gain[c] + bias[c];
    }
    mean[r] = mf;
    rstd[r] = rs;
  }
}

void layernorm_backward(float* dx, float* dgain, float* dbias, const float* dout,
                        const float* x, const float* mean, const float* rstd,
                        const float* gain, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* doutr = dout + r * cols;
    const float* xr = x + r * cols;
    float* dxr = dx + r * cols;
    const float m = mean[r];
    const float rs = rstd[r];

    double dnorm_mean = 0.0;
    double dnorm_norm_mean = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const float norm = (xr[c] - m) * rs;
      const float dnorm = doutr[c] * gain[c];
      dnorm_mean += dnorm;
      dnorm_norm_mean += dnorm * norm;
    }
    dnorm_mean /= static_cast<double>(cols);
    dnorm_norm_mean /= static_cast<double>(cols);

    for (std::size_t c = 0; c < cols; ++c) {
      const float norm = (xr[c] - m) * rs;
      const float dnorm = doutr[c] * gain[c];
      dxr[c] += (dnorm - static_cast<float>(dnorm_mean) -
                 norm * static_cast<float>(dnorm_norm_mean)) *
                rs;
      dgain[c] += doutr[c] * norm;
      dbias[c] += doutr[c];
    }
  }
}

/// out[M, O] = x[M, C] * W^T + bias, with W stored [O, C].
void linear_forward(float* out, const float* x, const float* weight, const float* bias,
                    std::size_t m, std::size_t in_dim, std::size_t out_dim) {
  sgemm(false, true, m, out_dim, in_dim, 1.0f, x, in_dim, weight, in_dim, 0.0f, out, out_dim);
  if (bias != nullptr) tensor::add_row_bias(out, bias, m, out_dim);
}

/// Accumulates dx (optional), dW and db for the layer above.
void linear_backward(float* dx, float* dweight, float* dbias, const float* dout,
                     const float* x, const float* weight, std::size_t m, std::size_t in_dim,
                     std::size_t out_dim) {
  if (dx != nullptr) {
    sgemm(false, false, m, in_dim, out_dim, 1.0f, dout, out_dim, weight, in_dim, 1.0f, dx,
          in_dim);
  }
  sgemm(true, false, out_dim, in_dim, m, 1.0f, dout, out_dim, x, in_dim, 1.0f, dweight, in_dim);
  if (dbias != nullptr) {
    for (std::size_t r = 0; r < m; ++r) {
      const float* dout_row = dout + r * out_dim;
      for (std::size_t o = 0; o < out_dim; ++o) dbias[o] += dout_row[o];
    }
  }
}

/// Causal multi-head attention. qkv is (B,T,3C): [q | k | v] per position.
/// Writes softmax probabilities (B,NH,T,T; upper triangle zero) and the
/// context output atty (B,T,C).
void attention_forward(float* atty, float* probs, const float* qkv, std::size_t batch,
                       std::size_t seq, std::size_t c, std::size_t n_heads) {
  const std::size_t hs = c / n_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  util::parallel_for_each(batch * n_heads, [&](std::size_t bh) {
    const std::size_t b = bh / n_heads;
    const std::size_t h = bh % n_heads;
    const float* qkv_b = qkv + b * seq * 3 * c;
    float* probs_bh = probs + (b * n_heads + h) * seq * seq;
    float* atty_b = atty + b * seq * c;
    for (std::size_t t = 0; t < seq; ++t) {
      const float* q = qkv_b + t * 3 * c + h * hs;
      float* row = probs_bh + t * seq;
      // Scores for t2 <= t; the rest of the row stays zero.
      for (std::size_t t2 = 0; t2 <= t; ++t2) {
        const float* k = qkv_b + t2 * 3 * c + c + h * hs;
        row[t2] = tensor::dot(q, k, hs) * scale;
      }
      tensor::softmax_row(row, row, t + 1);
      std::fill(row + t + 1, row + seq, 0.0f);
      float* out = atty_b + t * c + h * hs;
      std::fill(out, out + hs, 0.0f);
      for (std::size_t t2 = 0; t2 <= t; ++t2) {
        const float* v = qkv_b + t2 * 3 * c + 2 * c + h * hs;
        tensor::axpy(row[t2], v, out, hs);
      }
    }
  }, 1);
}

/// Backward of attention_forward. datty is the gradient wrt atty; d_att is a
/// scratch buffer (B,NH,T,T). Accumulates into dqkv (B,T,3C).
void attention_backward(float* dqkv, float* d_att, const float* datty, const float* probs,
                        const float* qkv, std::size_t batch, std::size_t seq, std::size_t c,
                        std::size_t n_heads) {
  const std::size_t hs = c / n_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  util::parallel_for_each(batch * n_heads, [&](std::size_t bh) {
    const std::size_t b = bh / n_heads;
    const std::size_t h = bh % n_heads;
    const float* qkv_b = qkv + b * seq * 3 * c;
    float* dqkv_b = dqkv + b * seq * 3 * c;
    const float* probs_bh = probs + (b * n_heads + h) * seq * seq;
    float* datt_bh = d_att + (b * n_heads + h) * seq * seq;
    const float* datty_b = datty + b * seq * c;

    for (std::size_t t = 0; t < seq; ++t) {
      const float* dout = datty_b + t * c + h * hs;
      const float* att_row = probs_bh + t * seq;
      float* datt_row = datt_bh + t * seq;

      // d probs and d v.
      for (std::size_t t2 = 0; t2 <= t; ++t2) {
        const float* v = qkv_b + t2 * 3 * c + 2 * c + h * hs;
        float* dv = dqkv_b + t2 * 3 * c + 2 * c + h * hs;
        datt_row[t2] = tensor::dot(dout, v, hs);
        tensor::axpy(att_row[t2], dout, dv, hs);
      }
      // Softmax backward: dpre = att * (datt - sum(datt * att)).
      double dot_sum = 0.0;
      for (std::size_t t2 = 0; t2 <= t; ++t2) dot_sum += datt_row[t2] * att_row[t2];
      const float* q = qkv_b + t * 3 * c + h * hs;
      float* dq = dqkv_b + t * 3 * c + h * hs;
      for (std::size_t t2 = 0; t2 <= t; ++t2) {
        const float dpre = att_row[t2] * (datt_row[t2] - static_cast<float>(dot_sum)) * scale;
        const float* k = qkv_b + t2 * 3 * c + c + h * hs;
        float* dk = dqkv_b + t2 * 3 * c + c + h * hs;
        tensor::axpy(dpre, k, dq, hs);
        tensor::axpy(dpre, q, dk, hs);
      }
    }
  }, 1);
}

void resize_if_needed(std::vector<float>& buffer, std::size_t size) {
  if (buffer.size() < size) buffer.assign(size, 0.0f);
}

/// m == 1 linear_forward that consults the model's quantised side storage:
/// runs the dequant-fused matvec when the weight segment is quantised,
/// the fp32 gemv otherwise. Biases always stay fp32.
void quant_linear(const tensor::QuantMatrix* qm, float* out, const float* x,
                  const float* weight, const float* bias, std::size_t in_dim,
                  std::size_t out_dim) {
  if (qm != nullptr) {
    tensor::gemv_quant(*qm, 1.0f, x, out);
    if (bias != nullptr) tensor::add_row_bias(out, bias, 1, out_dim);
    return;
  }
  linear_forward(out, x, weight, bias, 1, in_dim, out_dim);
}

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

std::size_t GptConfig::param_count() const {
  const std::size_t c = d_model;
  std::size_t per_block = 2 * c            // ln1
                          + 3 * c * c + 3 * c  // qkv
                          + c * c + c          // attn proj
                          + 2 * c              // ln2
                          + d_ff * c + d_ff    // fc
                          + c * d_ff + c;      // fc proj
  return vocab_size * c + ctx_len * c + n_layers * per_block + 2 * c;
}

std::string GptConfig::describe() const {
  return "GptConfig{V=" + std::to_string(vocab_size) + ", T=" + std::to_string(ctx_len) +
         ", C=" + std::to_string(d_model) + ", H=" + std::to_string(n_heads) +
         ", L=" + std::to_string(n_layers) + ", F=" + std::to_string(d_ff) +
         ", params=" + std::to_string(param_count()) + "}";
}

GptModel::GptModel(GptConfig config) : config_(config) {
  config_.validate();
  const std::size_t c = config_.d_model;
  const std::size_t f = config_.d_ff;
  layout_.wte = params_.register_segment("wte", config_.vocab_size * c, false);
  layout_.wpe = params_.register_segment("wpe", config_.ctx_len * c, false);
  layout_.blocks.resize(config_.n_layers);
  for (std::size_t l = 0; l < config_.n_layers; ++l) {
    auto& blk = layout_.blocks[l];
    const std::string p = "block" + std::to_string(l) + ".";
    blk.ln1_g = params_.register_segment(p + "ln1.g", c, false);
    blk.ln1_b = params_.register_segment(p + "ln1.b", c, false);
    blk.qkv_w = params_.register_segment(p + "attn.qkv.w", 3 * c * c, true);
    blk.qkv_b = params_.register_segment(p + "attn.qkv.b", 3 * c, false);
    blk.attn_proj_w = params_.register_segment(p + "attn.proj.w", c * c, true);
    blk.attn_proj_b = params_.register_segment(p + "attn.proj.b", c, false);
    blk.ln2_g = params_.register_segment(p + "ln2.g", c, false);
    blk.ln2_b = params_.register_segment(p + "ln2.b", c, false);
    blk.fc_w = params_.register_segment(p + "mlp.fc.w", f * c, true);
    blk.fc_b = params_.register_segment(p + "mlp.fc.b", f, false);
    blk.fc_proj_w = params_.register_segment(p + "mlp.proj.w", c * f, true);
    blk.fc_proj_b = params_.register_segment(p + "mlp.proj.b", c, false);
  }
  layout_.lnf_g = params_.register_segment("lnf.g", c, false);
  layout_.lnf_b = params_.register_segment("lnf.b", c, false);
  params_.allocate();
  if (params_.total_size() != config_.param_count()) {
    throw std::logic_error("GptModel: parameter layout / param_count mismatch");
  }
}

void GptModel::init_weights(util::Rng& rng) {
  constexpr float kStd = 0.02f;
  const float residual_scale =
      1.0f / std::sqrt(2.0f * static_cast<float>(config_.n_layers));
  auto fill_gauss = [&](std::size_t segment, float stddev) {
    float* p = params_.param(segment);
    const std::size_t n = params_.segments()[segment].size;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<float>(rng.next_gaussian()) * stddev;
    }
  };
  auto fill_const = [&](std::size_t segment, float value) {
    float* p = params_.param(segment);
    const std::size_t n = params_.segments()[segment].size;
    std::fill(p, p + n, value);
  };

  fill_gauss(layout_.wte, kStd);
  fill_gauss(layout_.wpe, kStd);
  for (const auto& blk : layout_.blocks) {
    fill_const(blk.ln1_g, 1.0f);
    fill_const(blk.ln1_b, 0.0f);
    fill_gauss(blk.qkv_w, kStd);
    fill_const(blk.qkv_b, 0.0f);
    fill_gauss(blk.attn_proj_w, kStd * residual_scale);
    fill_const(blk.attn_proj_b, 0.0f);
    fill_const(blk.ln2_g, 1.0f);
    fill_const(blk.ln2_b, 0.0f);
    fill_gauss(blk.fc_w, kStd);
    fill_const(blk.fc_b, 0.0f);
    fill_gauss(blk.fc_proj_w, kStd * residual_scale);
    fill_const(blk.fc_proj_b, 0.0f);
  }
  fill_const(layout_.lnf_g, 1.0f);
  fill_const(layout_.lnf_b, 0.0f);
}

void GptModel::quantize_weights(tensor::WeightDtype dtype) {
  quant_.clear();
  weight_dtype_ = dtype;
  if (dtype == tensor::WeightDtype::kF32) return;

  if (dtype == tensor::WeightDtype::kBf16) {
    // Round the entire parameter table in place so every code path — the
    // fused kernels, the fp32 fallbacks for small tensors, training
    // forward/backward — sees the same bf16-representable values. This is
    // what makes bf16 inference bitwise identical to fp32 inference over
    // the rounded masters.
    float* p = params_.params();
    const std::size_t n = params_.total_size();
    for (std::size_t i = 0; i < n; ++i) p[i] = tensor::bf16_round(p[i]);
  }

  quant_.resize(params_.segments().size());
  const std::size_t c = config_.d_model;
  const std::size_t f = config_.d_ff;
  auto store = [&](std::size_t segment, std::size_t rows, std::size_t cols) {
    quant_[segment] = tensor::quantize(dtype, params_.param(segment), rows, cols);
  };
  // The five matrices of the decode path: per-block qkv/attn_proj/fc/
  // fc_proj plus the tied wte LM head. Everything else (biases, layernorm
  // gains, wpe) is O(C) per token and stays fp32.
  store(layout_.wte, config_.vocab_size, c);
  for (const auto& blk : layout_.blocks) {
    store(blk.qkv_w, 3 * c, c);
    store(blk.attn_proj_w, c, c);
    store(blk.fc_w, f, c);
    store(blk.fc_proj_w, c, f);
  }
}

void GptModel::ensure_activation_capacity(GptActivations& acts, std::size_t batch,
                                          std::size_t seq) const {
  const std::size_t c = config_.d_model;
  const std::size_t f = config_.d_ff;
  const std::size_t v = config_.vocab_size;
  const std::size_t l = config_.n_layers;
  const std::size_t nh = config_.n_heads;
  const std::size_t bt = batch * seq;
  acts.batch = batch;
  acts.seq = seq;
  resize_if_needed(acts.encoded, bt * c);
  resize_if_needed(acts.residual, (l + 1) * bt * c);
  resize_if_needed(acts.ln1, l * bt * c);
  resize_if_needed(acts.ln1_mean, l * bt);
  resize_if_needed(acts.ln1_rstd, l * bt);
  resize_if_needed(acts.qkv, l * bt * 3 * c);
  resize_if_needed(acts.att_probs, l * batch * nh * seq * seq);
  resize_if_needed(acts.atty, l * bt * c);
  resize_if_needed(acts.attproj, l * bt * c);
  resize_if_needed(acts.ln2, l * bt * c);
  resize_if_needed(acts.ln2_mean, l * bt);
  resize_if_needed(acts.ln2_rstd, l * bt);
  resize_if_needed(acts.fch, l * bt * f);
  resize_if_needed(acts.fch_gelu, l * bt * f);
  resize_if_needed(acts.fcproj, l * bt * c);
  resize_if_needed(acts.lnf, bt * c);
  resize_if_needed(acts.lnf_mean, bt);
  resize_if_needed(acts.lnf_rstd, bt);
  resize_if_needed(acts.logits, bt * v);
  resize_if_needed(acts.probs, bt * v);
  resize_if_needed(acts.d_residual, bt * c);
  resize_if_needed(acts.d_ln, bt * c);
  resize_if_needed(acts.d_qkv, bt * 3 * c);
  resize_if_needed(acts.d_atty, bt * c);
  resize_if_needed(acts.d_att, batch * nh * seq * seq);
  resize_if_needed(acts.d_fch, bt * f);
  resize_if_needed(acts.d_fch_gelu, bt * f);
  resize_if_needed(acts.d_logits, bt * v);
}

float GptModel::forward(GptActivations& acts, const Token* tokens, const Token* targets,
                        std::size_t batch, std::size_t seq) const {
  if (seq > config_.ctx_len) {
    throw std::invalid_argument("forward: seq exceeds ctx_len");
  }
  ensure_activation_capacity(acts, batch, seq);
  const std::size_t c = config_.d_model;
  const std::size_t f = config_.d_ff;
  const std::size_t v = config_.vocab_size;
  const std::size_t nh = config_.n_heads;
  const std::size_t bt = batch * seq;
  const float* wte = params_.param(layout_.wte);
  const float* wpe = params_.param(layout_.wpe);

  // Embeddings.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < seq; ++t) {
      const Token token = tokens[b * seq + t];
      if (token < 0 || static_cast<std::size_t>(token) >= v) {
        throw std::out_of_range("forward: token id out of range");
      }
      float* out = acts.encoded.data() + (b * seq + t) * c;
      const float* te = wte + static_cast<std::size_t>(token) * c;
      const float* pe = wpe + t * c;
      for (std::size_t i = 0; i < c; ++i) out[i] = te[i] + pe[i];
    }
  }
  std::memcpy(acts.residual.data(), acts.encoded.data(), bt * c * sizeof(float));

  for (std::size_t l = 0; l < config_.n_layers; ++l) {
    const auto& blk = layout_.blocks[l];
    const float* res_in = acts.residual.data() + l * bt * c;
    float* res_out = acts.residual.data() + (l + 1) * bt * c;
    float* ln1 = acts.ln1.data() + l * bt * c;
    float* qkv = acts.qkv.data() + l * bt * 3 * c;
    float* probs = acts.att_probs.data() + l * batch * nh * seq * seq;
    float* atty = acts.atty.data() + l * bt * c;
    // attproj buffer stores the post-attention residual stream (input to
    // ln2); the projection itself is folded in before the residual add.
    float* res2 = acts.attproj.data() + l * bt * c;
    float* ln2 = acts.ln2.data() + l * bt * c;
    float* fch = acts.fch.data() + l * bt * f;
    float* fch_gelu = acts.fch_gelu.data() + l * bt * f;
    float* fcproj = acts.fcproj.data() + l * bt * c;

    layernorm_forward(ln1, acts.ln1_mean.data() + l * bt, acts.ln1_rstd.data() + l * bt,
                      res_in, params_.param(blk.ln1_g), params_.param(blk.ln1_b), bt, c);
    linear_forward(qkv, ln1, params_.param(blk.qkv_w), params_.param(blk.qkv_b), bt, c, 3 * c);
    attention_forward(atty, probs, qkv, batch, seq, c, nh);
    linear_forward(res2, atty, params_.param(blk.attn_proj_w), params_.param(blk.attn_proj_b),
                   bt, c, c);
    tensor::add_inplace(res2, res_in, bt * c);

    layernorm_forward(ln2, acts.ln2_mean.data() + l * bt, acts.ln2_rstd.data() + l * bt, res2,
                      params_.param(blk.ln2_g), params_.param(blk.ln2_b), bt, c);
    linear_forward(fch, ln2, params_.param(blk.fc_w), params_.param(blk.fc_b), bt, c, f);
    tensor::gelu_apply(fch, fch_gelu, bt * f);
    linear_forward(fcproj, fch_gelu, params_.param(blk.fc_proj_w),
                   params_.param(blk.fc_proj_b), bt, f, c);
    for (std::size_t i = 0; i < bt * c; ++i) res_out[i] = res2[i] + fcproj[i];
  }

  const float* res_final = acts.residual.data() + config_.n_layers * bt * c;
  layernorm_forward(acts.lnf.data(), acts.lnf_mean.data(), acts.lnf_rstd.data(), res_final,
                    params_.param(layout_.lnf_g), params_.param(layout_.lnf_b), bt, c);
  // Tied LM head: logits = lnf * wte^T.
  sgemm(false, true, bt, v, c, 1.0f, acts.lnf.data(), c, wte, c, 0.0f, acts.logits.data(), v);

  if (targets == nullptr) return 0.0f;

  // Softmax + mean cross-entropy over valid targets.
  std::size_t valid = 0;
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < bt; ++i) {
    tensor::softmax_row(acts.logits.data() + i * v, acts.probs.data() + i * v, v);
    const Token target = targets[i];
    if (target == kIgnoreTarget) continue;
    if (target < 0 || static_cast<std::size_t>(target) >= v) {
      throw std::out_of_range("forward: target id out of range");
    }
    ++valid;
    const float p = acts.probs[i * v + static_cast<std::size_t>(target)];
    loss_sum += -std::log(std::max(p, 1e-30f));
  }
  return valid > 0 ? static_cast<float>(loss_sum / static_cast<double>(valid)) : 0.0f;
}

void GptModel::backward(GptActivations& acts, const Token* tokens, const Token* targets,
                        std::size_t batch, std::size_t seq) {
  const std::size_t c = config_.d_model;
  const std::size_t f = config_.d_ff;
  const std::size_t v = config_.vocab_size;
  const std::size_t nh = config_.n_heads;
  const std::size_t bt = batch * seq;
  float* wte = params_.param(layout_.wte);
  float* d_wte = params_.grad(layout_.wte);
  float* d_wpe = params_.grad(layout_.wpe);

  // dLoss/dlogits from softmax cross-entropy.
  std::size_t valid = 0;
  for (std::size_t i = 0; i < bt; ++i) {
    if (targets[i] != kIgnoreTarget) ++valid;
  }
  if (valid == 0) return;
  const float inv_valid = 1.0f / static_cast<float>(valid);
  std::memset(acts.d_logits.data(), 0, bt * v * sizeof(float));
  for (std::size_t i = 0; i < bt; ++i) {
    const Token target = targets[i];
    if (target == kIgnoreTarget) continue;
    const float* p = acts.probs.data() + i * v;
    float* dl = acts.d_logits.data() + i * v;
    for (std::size_t j = 0; j < v; ++j) dl[j] = p[j] * inv_valid;
    dl[static_cast<std::size_t>(target)] -= inv_valid;
  }

  // Tied head backward: d_lnf = d_logits * wte; d_wte += d_logits^T * lnf.
  std::memset(acts.d_ln.data(), 0, bt * c * sizeof(float));
  sgemm(false, false, bt, c, v, 1.0f, acts.d_logits.data(), v, wte, c, 1.0f, acts.d_ln.data(),
        c);
  sgemm(true, false, v, c, bt, 1.0f, acts.d_logits.data(), v, acts.lnf.data(), c, 1.0f, d_wte,
        c);

  // Final LayerNorm backward into the residual-stream gradient.
  std::memset(acts.d_residual.data(), 0, bt * c * sizeof(float));
  const float* res_final = acts.residual.data() + config_.n_layers * bt * c;
  layernorm_backward(acts.d_residual.data(), params_.grad(layout_.lnf_g),
                     params_.grad(layout_.lnf_b), acts.d_ln.data(), res_final,
                     acts.lnf_mean.data(), acts.lnf_rstd.data(), params_.param(layout_.lnf_g),
                     bt, c);

  for (std::size_t li = config_.n_layers; li-- > 0;) {
    const auto& blk = layout_.blocks[li];
    const float* res_in = acts.residual.data() + li * bt * c;
    const float* ln1 = acts.ln1.data() + li * bt * c;
    const float* qkv = acts.qkv.data() + li * bt * 3 * c;
    const float* probs = acts.att_probs.data() + li * batch * nh * seq * seq;
    const float* atty = acts.atty.data() + li * bt * c;
    const float* res2 = acts.attproj.data() + li * bt * c;
    const float* ln2 = acts.ln2.data() + li * bt * c;
    const float* fch = acts.fch.data() + li * bt * f;
    const float* fch_gelu = acts.fch_gelu.data() + li * bt * f;

    // d_residual currently holds dL/d(res_out) = dL/d(res2 + fcproj).
    // MLP projection backward.
    std::memset(acts.d_fch_gelu.data(), 0, bt * f * sizeof(float));
    linear_backward(acts.d_fch_gelu.data(), params_.grad(blk.fc_proj_w),
                    params_.grad(blk.fc_proj_b), acts.d_residual.data(), fch_gelu,
                    params_.param(blk.fc_proj_w), bt, f, c);
    // GELU backward.
    tensor::gelu_grad_mul(fch, acts.d_fch_gelu.data(), acts.d_fch.data(), bt * f);
    // MLP input layer backward; d_ln receives dL/d(ln2 out).
    std::memset(acts.d_ln.data(), 0, bt * c * sizeof(float));
    linear_backward(acts.d_ln.data(), params_.grad(blk.fc_w), params_.grad(blk.fc_b),
                    acts.d_fch.data(), ln2, params_.param(blk.fc_w), bt, c, f);
    // ln2 backward accumulates into d_residual (res2 feeds both the MLP
    // branch via ln2 and the residual path directly).
    layernorm_backward(acts.d_residual.data(), params_.grad(blk.ln2_g),
                       params_.grad(blk.ln2_b), acts.d_ln.data(), res2,
                       acts.ln2_mean.data() + li * bt, acts.ln2_rstd.data() + li * bt,
                       params_.param(blk.ln2_g), bt, c);

    // Attention projection backward.
    std::memset(acts.d_atty.data(), 0, bt * c * sizeof(float));
    linear_backward(acts.d_atty.data(), params_.grad(blk.attn_proj_w),
                    params_.grad(blk.attn_proj_b), acts.d_residual.data(), atty,
                    params_.param(blk.attn_proj_w), bt, c, c);
    // Attention core backward.
    std::memset(acts.d_qkv.data(), 0, bt * 3 * c * sizeof(float));
    attention_backward(acts.d_qkv.data(), acts.d_att.data(), acts.d_atty.data(), probs, qkv,
                       batch, seq, c, nh);
    // QKV projection backward; d_ln receives dL/d(ln1 out).
    std::memset(acts.d_ln.data(), 0, bt * c * sizeof(float));
    linear_backward(acts.d_ln.data(), params_.grad(blk.qkv_w), params_.grad(blk.qkv_b),
                    acts.d_qkv.data(), ln1, params_.param(blk.qkv_w), bt, c, 3 * c);
    // ln1 backward accumulates into d_residual (which already carries the
    // pass-through gradient of the residual connection).
    layernorm_backward(acts.d_residual.data(), params_.grad(blk.ln1_g),
                       params_.grad(blk.ln1_b), acts.d_ln.data(), res_in,
                       acts.ln1_mean.data() + li * bt, acts.ln1_rstd.data() + li * bt,
                       params_.param(blk.ln1_g), bt, c);
  }

  // Embedding backward.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < seq; ++t) {
      const Token token = tokens[b * seq + t];
      const float* d_enc = acts.d_residual.data() + (b * seq + t) * c;
      tensor::add_inplace(d_wte + static_cast<std::size_t>(token) * c, d_enc, c);
      tensor::add_inplace(d_wpe + t * c, d_enc, c);
    }
  }
}

float GptModel::evaluate_loss(GptActivations& acts, const std::vector<Token>& tokens,
                              std::size_t batch, std::size_t seq) const {
  if (tokens.size() < batch * seq + 1) {
    throw std::invalid_argument("evaluate_loss: need batch*seq+1 tokens");
  }
  std::vector<Token> inputs(batch * seq);
  std::vector<Token> targets(batch * seq);
  for (std::size_t i = 0; i < batch * seq; ++i) {
    inputs[i] = tokens[i];
    targets[i] = tokens[i + 1];
  }
  return forward(acts, inputs.data(), targets.data(), batch, seq);
}

GptInference::GptInference(const GptModel& model) : GptInference(model, nullptr) {}

GptInference::GptInference(const GptModel& model, std::shared_ptr<KvArena> arena)
    : model_(model), arena_(std::move(arena)) {
  const auto& cfg = model.config();
  if (arena_ != nullptr && arena_->d_model() != cfg.d_model) {
    throw std::invalid_argument("GptInference: arena d_model does not match model");
  }
  // K/V buffers are NOT allocated here: step/prompt/fork charge them
  // lazily via ensure_kv(), so per-worker scratch inferences constructed
  // during setup cost nothing until their first question — which runs
  // inside the supervisor's fault domain, where a budget denial is caught
  // by the degradation ladder instead of aborting the run.
  x_.assign(cfg.d_model, 0.0f);
  ln_.assign(cfg.d_model, 0.0f);
  qkv_.assign(3 * cfg.d_model, 0.0f);
  atty_.assign(cfg.d_model, 0.0f);
  proj_.assign(cfg.d_model, 0.0f);
  fch_.assign(cfg.d_ff, 0.0f);
  scores_.assign(cfg.ctx_len, 0.0f);
  logits_.assign(cfg.vocab_size, 0.0f);
  inference_metrics();  // registered up front so exports show 0, not nothing
}

void GptInference::reset() {
  position_ = 0;
  history_.clear();
  // Invalidate outstanding snapshots: their rows may be overwritten by the
  // next feed, and a CRC match alone cannot prove they were not (a reset
  // leaves the old bytes in place until re-encoded over).
  ++generation_;
}

GptInference::~GptInference() {
  if (arena_ != nullptr && !k_blocks_.empty()) drop_held_blocks();
}

bool GptInference::kv_resident() const {
  return paged() ? !k_blocks_.empty() : !k_cache_.empty();
}

void GptInference::ensure_kv() {
  if (kv_resident()) return;
  const auto& cfg = model_.config();
  if (paged()) {
    // Only the pointer tables are set up here: blocks are charged one at a
    // time as positions are first written (k_write_row/v_write_row), so an
    // idle paged session costs no KV budget at all.
    const std::size_t nb = ceil_div(cfg.ctx_len, arena_->block_tokens());
    k_blocks_.assign(cfg.n_layers,
                     std::vector<KvArena::BlockId>(nb, KvArena::kNoBlock));
    v_blocks_.assign(cfg.n_layers,
                     std::vector<KvArena::BlockId>(nb, KvArena::kNoBlock));
    k_ptrs_.assign(cfg.n_layers, std::vector<float*>(nb, nullptr));
    v_ptrs_.assign(cfg.n_layers, std::vector<float*>(nb, nullptr));
    return;
  }
  // Build the whole cache into locals first. Each per-layer allocation
  // charges the budget through the vector's allocator, and a denial on any
  // layer unwinds the locals — releasing exactly what they had charged —
  // with the members untouched (strong guarantee). The previous scheme
  // (reserve the total, then resize the members layer by layer) left a
  // half-allocated cache behind on a mid-loop throw, which the residency
  // fast path then mistook for a complete one.
  std::vector<KvVector> k(cfg.n_layers), v(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    k[l].assign(cfg.ctx_len * cfg.d_model, 0.0f);
    v[l].assign(cfg.ctx_len * cfg.d_model, 0.0f);
  }
  k_cache_ = std::move(k);
  v_cache_ = std::move(v);
}

void GptInference::drop_held_blocks() {
  for (const auto& layer : k_blocks_) {
    for (KvArena::BlockId id : layer) {
      if (id != KvArena::kNoBlock) arena_->release(id);
    }
  }
  for (const auto& layer : v_blocks_) {
    for (KvArena::BlockId id : layer) {
      if (id != KvArena::kNoBlock) arena_->release(id);
    }
  }
  k_blocks_.clear();
  v_blocks_.clear();
  k_ptrs_.clear();
  v_ptrs_.clear();
}

std::size_t GptInference::kv_bytes() const {
  if (!kv_resident()) return 0;
  const auto& cfg = model_.config();
  if (paged()) {
    std::size_t held = 0;
    for (const auto& layer : k_blocks_) {
      for (KvArena::BlockId id : layer) held += (id != KvArena::kNoBlock) ? 1 : 0;
    }
    for (const auto& layer : v_blocks_) {
      for (KvArena::BlockId id : layer) held += (id != KvArena::kNoBlock) ? 1 : 0;
    }
    return held * arena_->block_bytes();
  }
  return cfg.n_layers * 2 * cfg.ctx_len * cfg.d_model * sizeof(float);
}

std::size_t GptInference::release_kv() {
  if (!kv_resident()) return 0;
  const std::size_t freed = kv_bytes();
  if (paged()) {
    drop_held_blocks();
  } else {
    std::vector<KvVector>().swap(k_cache_);
    std::vector<KvVector>().swap(v_cache_);
  }
  position_ = 0;
  history_.clear();
  // Outstanding snapshots now reference freed rows; the generation bump
  // turns any later fork into StaleSnapshotError instead of a dangling
  // read (the CRC check alone would dereference the freed buffers).
  ++generation_;
  return freed;
}

const float* GptInference::k_row(std::size_t l, std::size_t t) const {
  const std::size_t c = model_.config().d_model;
  if (!paged()) return k_cache_[l].data() + t * c;
  const std::size_t bt = arena_->block_tokens();
  return k_ptrs_[l][t / bt] + (t % bt) * c;
}

const float* GptInference::v_row(std::size_t l, std::size_t t) const {
  const std::size_t c = model_.config().d_model;
  if (!paged()) return v_cache_[l].data() + t * c;
  const std::size_t bt = arena_->block_tokens();
  return v_ptrs_[l][t / bt] + (t % bt) * c;
}

float* GptInference::k_write_row(std::size_t l, std::size_t t) {
  const std::size_t c = model_.config().d_model;
  if (!paged()) return k_cache_[l].data() + t * c;
  const std::size_t bt = arena_->block_tokens();
  const std::size_t bi = t / bt;
  KvArena::BlockId& id = k_blocks_[l][bi];
  const KvArena::WriteRef ref =
      (id == KvArena::kNoBlock) ? arena_->alloc_ref() : arena_->write_ref(id);
  id = ref.id;
  k_ptrs_[l][bi] = ref.data;
  return ref.data + (t % bt) * c;
}

float* GptInference::v_write_row(std::size_t l, std::size_t t) {
  const std::size_t c = model_.config().d_model;
  if (!paged()) return v_cache_[l].data() + t * c;
  const std::size_t bt = arena_->block_tokens();
  const std::size_t bi = t / bt;
  KvArena::BlockId& id = v_blocks_[l][bi];
  const KvArena::WriteRef ref =
      (id == KvArena::kNoBlock) ? arena_->alloc_ref() : arena_->write_ref(id);
  id = ref.id;
  v_ptrs_[l][bi] = ref.data;
  return ref.data + (t % bt) * c;
}

std::uint32_t GptInference::kv_crc(std::size_t rows) const {
  // Same byte stream in both storage modes (all K layers row-major, then
  // all V layers), so a snapshot CRC taken from a contiguous inference
  // revalidates against a paged one and vice versa.
  util::Crc32 crc;
  if (!kv_resident()) rows = 0;
  const std::size_t c = model_.config().d_model;
  const std::size_t n_layers = model_.config().n_layers;
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t t = 0; t < rows; ++t) crc.update(k_row(l, t), c * sizeof(float));
  }
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t t = 0; t < rows; ++t) crc.update(v_row(l, t), c * sizeof(float));
  }
  return crc.value();
}

void GptInference::adopt_blocks(const GptInference& src, std::size_t prefix_len) {
  const auto& cfg = model_.config();
  const std::size_t bt = arena_->block_tokens();
  if (!k_blocks_.empty()) drop_held_blocks();
  const std::size_t nb = ceil_div(cfg.ctx_len, bt);
  k_blocks_.assign(cfg.n_layers, std::vector<KvArena::BlockId>(nb, KvArena::kNoBlock));
  v_blocks_.assign(cfg.n_layers, std::vector<KvArena::BlockId>(nb, KvArena::kNoBlock));
  k_ptrs_.assign(cfg.n_layers, std::vector<float*>(nb, nullptr));
  v_ptrs_.assign(cfg.n_layers, std::vector<float*>(nb, nullptr));
  // Share the prefix blocks by refcount — no row copies. A boundary block
  // cut mid-prefix is safe to share: rows >= prefix_len are written
  // strictly sequentially, and the first such write copies-on-write.
  const std::size_t shared = ceil_div(prefix_len, bt);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    for (std::size_t bi = 0; bi < shared; ++bi) {
      arena_->add_ref(src.k_blocks_[l][bi]);
      k_blocks_[l][bi] = src.k_blocks_[l][bi];
      k_ptrs_[l][bi] = src.k_ptrs_[l][bi];
      arena_->add_ref(src.v_blocks_[l][bi]);
      v_blocks_[l][bi] = src.v_blocks_[l][bi];
      v_ptrs_[l][bi] = src.v_ptrs_[l][bi];
    }
  }
}

std::size_t common_token_prefix(const std::vector<Token>& a, const std::vector<Token>& b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t n = 0;
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

KvSnapshot GptInference::snapshot() const {
  KvSnapshot snap;
  snap.source_ = this;
  snap.generation_ = generation_;
  snap.tokens_ = history_;
  snap.crc_ = kv_crc(position_);
  return snap;
}

void GptInference::fork_from(const KvSnapshot& snap) { fork_from(snap, snap.length()); }

void GptInference::fork_from(const KvSnapshot& snap, std::size_t prefix_len) {
  if (!snap.valid()) {
    throw StaleSnapshotError("fork_from: empty snapshot handle");
  }
  const GptInference& src = *snap.source_;
  if (&src.model_ != &model_) {
    throw std::invalid_argument("fork_from: snapshot was taken from a different model");
  }
  if (prefix_len > snap.tokens_.size()) {
    throw std::invalid_argument("fork_from: prefix_len exceeds snapshot length");
  }
  if (src.generation_ != snap.generation_) {
    throw StaleSnapshotError(
        "fork_from: snapshot invalidated by reset() of its source inference");
  }
  // Defence in depth: revalidate the referenced rows against the CRC
  // captured at snapshot time, so any other mutation of the source cache
  // surfaces as a typed error instead of silently wrong logits.
  const std::size_t c = model_.config().d_model;
  if (src.kv_crc(snap.tokens_.size()) != snap.crc_) {
    throw StaleSnapshotError(
        "fork_from: source K/V rows changed since snapshot (CRC mismatch)");
  }
  if (this != &src) {
    if (paged() && src.paged() && arena_ == src.arena_) {
      // Same arena: share the prefix blocks by refcount instead of copying
      // rows — this is what makes N forked sessions pay for one prefix.
      adopt_blocks(src, prefix_len);
    } else {
      ensure_kv();
      // prefix_len == 0 also covers a source whose (lazy) caches were
      // never allocated: there are no rows to copy.
      const std::size_t n_layers = model_.config().n_layers;
      for (std::size_t l = 0; prefix_len > 0 && l < n_layers; ++l) {
        for (std::size_t t = 0; t < prefix_len; ++t) {
          std::memcpy(k_write_row(l, t), src.k_row(l, t), c * sizeof(float));
          std::memcpy(v_write_row(l, t), src.v_row(l, t), c * sizeof(float));
        }
      }
    }
  }
  position_ = prefix_len;
  history_.assign(snap.tokens_.begin(),
                  snap.tokens_.begin() + static_cast<std::ptrdiff_t>(prefix_len));
}

void GptInference::corrupt_kv_for_testing(std::size_t layer, std::size_t index, float value) {
  if (!paged()) {
    k_cache_.at(layer).at(index) = value;
    return;
  }
  // Deliberately bypasses copy-on-write: the seam simulates cache
  // corruption, which by nature does not announce itself to refcounts.
  const std::size_t c = model_.config().d_model;
  const std::size_t t = index / c;
  const std::size_t bt = arena_->block_tokens();
  float* block = k_ptrs_.at(layer).at(t / bt);
  if (block == nullptr) {
    throw std::out_of_range("corrupt_kv_for_testing: row not allocated");
  }
  block[(t % bt) * c + index % c] = value;
}

const std::vector<float>& GptInference::step(Token token) {
  forward_token(token);
  return compute_logits();
}

void GptInference::forward_token(Token token) {
  const auto& cfg = model_.config();
  const auto& layout = model_.layout();
  const auto& params = model_.params();
  const std::size_t c = cfg.d_model;
  const std::size_t f = cfg.d_ff;
  const std::size_t nh = cfg.n_heads;
  const std::size_t hs = cfg.head_dim();
  if (position_ >= cfg.ctx_len) {
    throw std::length_error("GptInference: context window exhausted");
  }
  if (token < 0 || static_cast<std::size_t>(token) >= cfg.vocab_size) {
    throw std::out_of_range("GptInference: token id out of range");
  }
  ensure_kv();
  const std::size_t t = position_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const float* wte = params.param(layout.wte);
  const float* wpe = params.param(layout.wpe);

  for (std::size_t i = 0; i < c; ++i) {
    x_[i] = wte[static_cast<std::size_t>(token) * c + i] + wpe[t * c + i];
  }

  float mean_scratch, rstd_scratch;
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& blk = layout.blocks[l];
    layernorm_forward(ln_.data(), &mean_scratch, &rstd_scratch, x_.data(),
                      params.param(blk.ln1_g), params.param(blk.ln1_b), 1, c);
    quant_linear(model_.quant(blk.qkv_w), qkv_.data(), ln_.data(),
                 params.param(blk.qkv_w), params.param(blk.qkv_b), c, 3 * c);
    std::memcpy(k_write_row(l, t), qkv_.data() + c, c * sizeof(float));
    std::memcpy(v_write_row(l, t), qkv_.data() + 2 * c, c * sizeof(float));

    for (std::size_t h = 0; h < nh; ++h) {
      const float* q = qkv_.data() + h * hs;
      for (std::size_t t2 = 0; t2 <= t; ++t2) {
        scores_[t2] = tensor::dot(q, k_row(l, t2) + h * hs, hs) * scale;
      }
      tensor::softmax_row(scores_.data(), scores_.data(), t + 1);
      float* out = atty_.data() + h * hs;
      std::fill(out, out + hs, 0.0f);
      for (std::size_t t2 = 0; t2 <= t; ++t2) {
        tensor::axpy(scores_[t2], v_row(l, t2) + h * hs, out, hs);
      }
    }
    quant_linear(model_.quant(blk.attn_proj_w), proj_.data(), atty_.data(),
                 params.param(blk.attn_proj_w), params.param(blk.attn_proj_b), c, c);
    tensor::add_inplace(x_.data(), proj_.data(), c);

    layernorm_forward(ln_.data(), &mean_scratch, &rstd_scratch, x_.data(),
                      params.param(blk.ln2_g), params.param(blk.ln2_b), 1, c);
    quant_linear(model_.quant(blk.fc_w), fch_.data(), ln_.data(),
                 params.param(blk.fc_w), params.param(blk.fc_b), c, f);
    tensor::gelu_apply(fch_.data(), fch_.data(), f);
    quant_linear(model_.quant(blk.fc_proj_w), proj_.data(), fch_.data(),
                 params.param(blk.fc_proj_w), params.param(blk.fc_proj_b), f, c);
    tensor::add_inplace(x_.data(), proj_.data(), c);
  }
  ++position_;
  history_.push_back(token);
}

const std::vector<float>& GptInference::compute_logits() {
  const auto& cfg = model_.config();
  const auto& layout = model_.layout();
  const auto& params = model_.params();
  const std::size_t c = cfg.d_model;
  float mean_scratch, rstd_scratch;
  layernorm_forward(ln_.data(), &mean_scratch, &rstd_scratch, x_.data(),
                    params.param(layout.lnf_g), params.param(layout.lnf_b), 1, c);
  if (const tensor::QuantMatrix* qm = model_.quant(layout.wte)) {
    tensor::gemv_quant(*qm, 1.0f, ln_.data(), logits_.data());
  } else {
    sgemm(false, true, 1, cfg.vocab_size, c, 1.0f, ln_.data(), c,
          params.param(layout.wte), c, 0.0f, logits_.data(), cfg.vocab_size);
  }
  inference_metrics().logit_rows.add();
  return logits_;
}

const std::vector<float>& GptInference::prompt(const std::vector<Token>& tokens) {
  return prompt(tokens, nullptr);
}

const std::vector<float>& GptInference::prompt(const std::vector<Token>& tokens,
                                               const util::CancelToken* cancel) {
  if (tokens.empty()) throw std::invalid_argument("prompt: empty token sequence");
  return prompt(tokens.data(), tokens.size(), cancel);
}

const std::vector<float>& GptInference::prompt(const Token* tokens, std::size_t count,
                                               const util::CancelToken* cancel) {
  if (count == 0) return logits_;
  std::size_t fed = 0;
  for (; fed < count; ++fed) {
    if (cancel != nullptr && cancel->cancelled()) break;
    forward_token(tokens[fed]);
  }
  inference_metrics().prefill_tokens.add(fed);
  if (fed < count) return logits_;  // cancelled: stale, as documented
  return compute_logits();
}

// ---------------------------------------------------------------------------
// BatchedInference

BatchedInference::BatchedInference(const GptModel& model, std::size_t max_slots)
    : model_(model) {
  if (max_slots == 0) {
    throw std::invalid_argument("BatchedInference: max_slots must be >= 1");
  }
  const auto& cfg = model.config();
  slots_.resize(max_slots);
  for (auto& s : slots_) {
    // KV caches stay lazy (ensure_slot_kv), same as GptInference: an idle
    // slot costs only its activation scratch.
    s.x.assign(cfg.d_model, 0.0f);
    s.ln.assign(cfg.d_model, 0.0f);
    s.qkv.assign(3 * cfg.d_model, 0.0f);
    s.atty.assign(cfg.d_model, 0.0f);
    s.proj.assign(cfg.d_model, 0.0f);
    s.fch.assign(cfg.d_ff, 0.0f);
    s.scores.assign(cfg.ctx_len, 0.0f);
    s.logits.assign(cfg.vocab_size, 0.0f);
  }
  xs_.resize(max_slots);
  ys_.resize(max_slots);
}

const std::vector<float>& BatchedInference::logits(std::size_t slot) const {
  return slots_.at(slot).logits;
}

std::size_t BatchedInference::position(std::size_t slot) const {
  return slots_.at(slot).position;
}

const std::vector<Token>& BatchedInference::history(std::size_t slot) const {
  return slots_.at(slot).history;
}

void BatchedInference::reset_slot(std::size_t slot) {
  Slot& s = slots_.at(slot);
  s.position = 0;
  s.history.clear();
}

void BatchedInference::ensure_slot_kv(std::size_t slot) {
  Slot& s = slots_.at(slot);
  if (!s.k_cache.empty()) return;
  const auto& cfg = model_.config();
  // Build into locals first: each per-layer allocation charges the budget
  // through the vector's allocator, and a denial on any layer unwinds the
  // locals with the slot untouched (strong guarantee) — the other slots
  // keep decoding and a retry starts from a clean slot.
  std::vector<KvVector> k(cfg.n_layers), v(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    k[l].assign(cfg.ctx_len * cfg.d_model, 0.0f);
    v[l].assign(cfg.ctx_len * cfg.d_model, 0.0f);
  }
  s.k_cache = std::move(k);
  s.v_cache = std::move(v);
}

std::size_t BatchedInference::release_slot_kv(std::size_t slot) {
  Slot& s = slots_.at(slot);
  if (s.k_cache.empty()) return 0;
  const std::size_t freed = slot_kv_bytes(slot);
  std::vector<KvVector>().swap(s.k_cache);
  std::vector<KvVector>().swap(s.v_cache);
  s.position = 0;
  s.history.clear();
  return freed;
}

std::size_t BatchedInference::slot_kv_bytes(std::size_t slot) const {
  const Slot& s = slots_.at(slot);
  if (s.k_cache.empty()) return 0;
  const auto& cfg = model_.config();
  return cfg.n_layers * 2 * cfg.ctx_len * cfg.d_model * sizeof(float);
}

void BatchedInference::fork_slot(std::size_t slot, const KvSnapshot& snap,
                                 std::size_t prefix_len) {
  Slot& s = slots_.at(slot);
  if (!snap.valid()) {
    throw StaleSnapshotError("fork_slot: empty snapshot handle");
  }
  const GptInference& src = *snap.source_;
  if (&src.model_ != &model_) {
    throw std::invalid_argument("fork_slot: snapshot was taken from a different model");
  }
  if (prefix_len > snap.tokens_.size()) {
    throw std::invalid_argument("fork_slot: prefix_len exceeds snapshot length");
  }
  if (src.generation_ != snap.generation_) {
    throw StaleSnapshotError(
        "fork_slot: snapshot invalidated by reset() of its source inference");
  }
  const std::size_t c = model_.config().d_model;
  if (src.kv_crc(snap.tokens_.size()) != snap.crc_) {
    throw StaleSnapshotError(
        "fork_slot: source K/V rows changed since snapshot (CRC mismatch)");
  }
  ensure_slot_kv(slot);
  // Per-row copies through the source's row accessor, so a paged source
  // (serve sessions over an arena) forks into a batch slot transparently.
  for (std::size_t l = 0; prefix_len > 0 && l < s.k_cache.size(); ++l) {
    for (std::size_t t = 0; t < prefix_len; ++t) {
      std::memcpy(s.k_cache[l].data() + t * c, src.k_row(l, t), c * sizeof(float));
      std::memcpy(s.v_cache[l].data() + t * c, src.v_row(l, t), c * sizeof(float));
    }
  }
  s.position = prefix_len;
  s.history.assign(snap.tokens_.begin(),
                   snap.tokens_.begin() + static_cast<std::ptrdiff_t>(prefix_len));
}

void BatchedInference::export_slot(std::size_t slot, GptInference& out) const {
  const Slot& s = slots_.at(slot);
  if (&out.model_ != &model_) {
    throw std::invalid_argument("export_slot: target built on a different model");
  }
  out.ensure_kv();
  const std::size_t c = model_.config().d_model;
  const std::size_t n_layers = model_.config().n_layers;
  for (std::size_t l = 0; s.position > 0 && l < n_layers; ++l) {
    for (std::size_t t = 0; t < s.position; ++t) {
      std::memcpy(out.k_write_row(l, t), s.k_cache[l].data() + t * c, c * sizeof(float));
      std::memcpy(out.v_write_row(l, t), s.v_cache[l].data() + t * c, c * sizeof(float));
    }
  }
  out.position_ = s.position;
  out.history_ = s.history;
  // The target's rows were overwritten: snapshots previously taken from it
  // must fail typed instead of silently referencing the new contents.
  ++out.generation_;
}

void BatchedInference::import_slot(std::size_t slot, const GptInference& in) {
  Slot& s = slots_.at(slot);
  if (&in.model_ != &model_) {
    throw std::invalid_argument("import_slot: source built on a different model");
  }
  s.position = 0;
  s.history.clear();
  ensure_slot_kv(slot);
  const std::size_t c = model_.config().d_model;
  for (std::size_t l = 0; in.position_ > 0 && l < s.k_cache.size(); ++l) {
    for (std::size_t t = 0; t < in.position_; ++t) {
      std::memcpy(s.k_cache[l].data() + t * c, in.k_row(l, t), c * sizeof(float));
      std::memcpy(s.v_cache[l].data() + t * c, in.v_row(l, t), c * sizeof(float));
    }
  }
  s.position = in.position_;
  s.history = in.history_;
}

void BatchedInference::step(const std::size_t* slots, const Token* tokens,
                            std::size_t count) {
  if (count == 0) return;
  const auto& cfg = model_.config();
  const auto& layout = model_.layout();
  const auto& params = model_.params();
  const std::size_t c = cfg.d_model;
  const std::size_t f = cfg.d_ff;
  const std::size_t nh = cfg.n_heads;
  const std::size_t hs = cfg.head_dim();
  if (count > slots_.size()) {
    throw std::invalid_argument("BatchedInference: step count exceeds max_slots");
  }
  // Validate everything before touching any slot, so a throw leaves the
  // whole batch unmodified (one bad request cannot corrupt its neighbours).
  for (std::size_t i = 0; i < count; ++i) {
    if (slots[i] >= slots_.size()) {
      throw std::out_of_range("BatchedInference: slot id out of range");
    }
    for (std::size_t j = i + 1; j < count; ++j) {
      if (slots[i] == slots[j]) {
        throw std::invalid_argument("BatchedInference: duplicate slot in one step");
      }
    }
    if (slots_[slots[i]].position >= cfg.ctx_len) {
      throw std::length_error("BatchedInference: context window exhausted");
    }
    if (tokens[i] < 0 || static_cast<std::size_t>(tokens[i]) >= cfg.vocab_size) {
      throw std::out_of_range("BatchedInference: token id out of range");
    }
  }
  for (std::size_t i = 0; i < count; ++i) ensure_slot_kv(slots[i]);

  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const float* wte = params.param(layout.wte);
  const float* wpe = params.param(layout.wpe);

  // Shared linear over the staged xs_/ys_ pointer tables, routed through
  // the quantised side storage when the segment has it.
  auto batched_linear = [&](std::size_t w_seg, std::size_t n, std::size_t k,
                            std::size_t count_now) {
    if (const tensor::QuantMatrix* qm = model_.quant(w_seg)) {
      tensor::multi_gemv_quant(*qm, 1.0f, xs_.data(), count_now, ys_.data());
    } else {
      tensor::multi_gemv(n, k, 1.0f, xs_.data(), count_now, params.param(w_seg), k,
                         ys_.data());
    }
  };

  for (std::size_t i = 0; i < count; ++i) {
    Slot& s = slots_[slots[i]];
    const float* te = wte + static_cast<std::size_t>(tokens[i]) * c;
    const float* pe = wpe + s.position * c;
    for (std::size_t j = 0; j < c; ++j) s.x[j] = te[j] + pe[j];
  }

  float mean_scratch, rstd_scratch;
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& blk = layout.blocks[l];
    for (std::size_t i = 0; i < count; ++i) {
      Slot& s = slots_[slots[i]];
      layernorm_forward(s.ln.data(), &mean_scratch, &rstd_scratch, s.x.data(),
                        params.param(blk.ln1_g), params.param(blk.ln1_b), 1, c);
      xs_[i] = s.ln.data();
      ys_[i] = s.qkv.data();
    }
    batched_linear(blk.qkv_w, 3 * c, c, count);
    for (std::size_t i = 0; i < count; ++i) {
      Slot& s = slots_[slots[i]];
      tensor::add_row_bias(s.qkv.data(), params.param(blk.qkv_b), 1, 3 * c);
      const std::size_t t = s.position;
      std::memcpy(s.k_cache[l].data() + t * c, s.qkv.data() + c, c * sizeof(float));
      std::memcpy(s.v_cache[l].data() + t * c, s.qkv.data() + 2 * c, c * sizeof(float));
      // Attention over this slot's own rows only: ragged positions are the
      // normal case, each slot's softmax spans its own t + 1 entries.
      for (std::size_t h = 0; h < nh; ++h) {
        const float* q = s.qkv.data() + h * hs;
        for (std::size_t t2 = 0; t2 <= t; ++t2) {
          s.scores[t2] = tensor::dot(q, s.k_cache[l].data() + t2 * c + h * hs, hs) * scale;
        }
        tensor::softmax_row(s.scores.data(), s.scores.data(), t + 1);
        float* out = s.atty.data() + h * hs;
        std::fill(out, out + hs, 0.0f);
        for (std::size_t t2 = 0; t2 <= t; ++t2) {
          tensor::axpy(s.scores[t2], s.v_cache[l].data() + t2 * c + h * hs, out, hs);
        }
      }
      xs_[i] = s.atty.data();
      ys_[i] = s.proj.data();
    }
    batched_linear(blk.attn_proj_w, c, c, count);
    for (std::size_t i = 0; i < count; ++i) {
      Slot& s = slots_[slots[i]];
      tensor::add_row_bias(s.proj.data(), params.param(blk.attn_proj_b), 1, c);
      tensor::add_inplace(s.x.data(), s.proj.data(), c);
      layernorm_forward(s.ln.data(), &mean_scratch, &rstd_scratch, s.x.data(),
                        params.param(blk.ln2_g), params.param(blk.ln2_b), 1, c);
      xs_[i] = s.ln.data();
      ys_[i] = s.fch.data();
    }
    batched_linear(blk.fc_w, f, c, count);
    for (std::size_t i = 0; i < count; ++i) {
      Slot& s = slots_[slots[i]];
      tensor::add_row_bias(s.fch.data(), params.param(blk.fc_b), 1, f);
      tensor::gelu_apply(s.fch.data(), s.fch.data(), f);
      xs_[i] = s.fch.data();
      ys_[i] = s.proj.data();
    }
    batched_linear(blk.fc_proj_w, c, f, count);
    for (std::size_t i = 0; i < count; ++i) {
      Slot& s = slots_[slots[i]];
      tensor::add_row_bias(s.proj.data(), params.param(blk.fc_proj_b), 1, c);
      tensor::add_inplace(s.x.data(), s.proj.data(), c);
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    Slot& s = slots_[slots[i]];
    layernorm_forward(s.ln.data(), &mean_scratch, &rstd_scratch, s.x.data(),
                      params.param(layout.lnf_g), params.param(layout.lnf_b), 1, c);
    xs_[i] = s.ln.data();
    ys_[i] = s.logits.data();
  }
  batched_linear(layout.wte, cfg.vocab_size, c, count);
  inference_metrics().logit_rows.add(count);

  for (std::size_t i = 0; i < count; ++i) {
    Slot& s = slots_[slots[i]];
    ++s.position;
    s.history.push_back(tokens[i]);
  }
}

}  // namespace astromlab::nn

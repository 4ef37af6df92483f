#include "pruning/mask.h"

#include <algorithm>

#include "nn/linear.h"
#include "util/check.h"

namespace subfed {

namespace {

bool in_scope(const Parameter& p, MaskScope scope, const std::vector<std::string>& fc_names) {
  if (!p.prunable) return false;
  if (scope == MaskScope::kAllPrunable) return true;
  return std::find(fc_names.begin(), fc_names.end(), p.name) != fc_names.end();
}

}  // namespace

ModelMask ModelMask::ones_like(Model& model, MaskScope scope) {
  std::vector<std::string> fc_names;
  for (const Linear* fc : model.topology().fc_layers) {
    fc_names.push_back(const_cast<Linear*>(fc)->weight().name);
  }
  ModelMask mask;
  for (Parameter* p : model.parameters()) {
    if (in_scope(*p, scope, fc_names)) {
      mask.entries_.emplace_back(p->name, Tensor(p->value.shape(), 1.0f));
    }
  }
  return mask;
}

const Tensor* ModelMask::find(const std::string& name) const {
  for (const auto& [n, t] : entries_) {
    if (n == name) return &t;
  }
  return nullptr;
}

Tensor* ModelMask::find(const std::string& name) {
  for (auto& [n, t] : entries_) {
    if (n == name) return &t;
  }
  return nullptr;
}

void ModelMask::set(const std::string& name, Tensor mask) {
  for (auto& [n, t] : entries_) {
    if (n == name) {
      t = std::move(mask);
      return;
    }
  }
  entries_.emplace_back(name, std::move(mask));
}

void ModelMask::check_binary() const {
  for (const auto& [name, t] : entries_) {
    // Branch-free scan first: restores run this on every client exchange.
    const float* v = t.data();
    std::size_t bad = 0;
    for (std::size_t i = 0; i < t.numel(); ++i) bad += (v[i] != 0.0f) & (v[i] != 1.0f);
    if (bad == 0) continue;
    const std::size_t i = static_cast<std::size_t>(
        std::find_if(v, v + t.numel(), [](float x) { return x != 0.0f && x != 1.0f; }) - v);
    SUBFEDAVG_CHECK(false, "mask '" << name << "' entry " << i << " is " << v[i]
                                    << " (not 0 or 1)");
  }
}

void ModelMask::apply_to_weights(Model& model) const {
  for (Parameter* p : model.parameters()) {
    if (const Tensor* m = find(p->name)) {
      SUBFEDAVG_CHECK(m->shape() == p->value.shape(), "mask shape for " << p->name);
      p->value.mul_(*m);
      // The sparsity pattern just changed: advance the epoch so Device plan
      // caches drop their sparse-vs-dense decision for this parameter.
      ++p->mask_epoch;
    }
  }
}

void ModelMask::apply_to_grads(Model& model) const {
  for (Parameter* p : model.parameters()) {
    if (const Tensor* m = find(p->name)) p->grad.mul_(*m);
  }
}

std::size_t ModelMask::covered() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, t] : entries_) n += t.numel();
  return n;
}

std::size_t ModelMask::kept() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, t] : entries_) n += t.numel() - t.count_zero();
  return n;
}

double ModelMask::pruned_fraction() const noexcept {
  const std::size_t c = covered();
  return c == 0 ? 0.0 : 1.0 - static_cast<double>(kept()) / static_cast<double>(c);
}

double ModelMask::hamming_distance(const ModelMask& a, const ModelMask& b) {
  SUBFEDAVG_CHECK(a.entries_.size() == b.entries_.size(), "mask coverage differs");
  std::size_t total = 0, differ = 0;
  for (std::size_t e = 0; e < a.entries_.size(); ++e) {
    const auto& [an, at] = a.entries_[e];
    const auto& [bn, bt] = b.entries_[e];
    SUBFEDAVG_CHECK(an == bn && at.shape() == bt.shape(), "mask entry mismatch: " << an);
    total += at.numel();
    const float* x = at.data();
    const float* y = bt.data();
    for (std::size_t i = 0; i < at.numel(); ++i) differ += (x[i] != y[i]);
  }
  return total == 0 ? 0.0 : static_cast<double>(differ) / static_cast<double>(total);
}

ModelMask ModelMask::intersected(const ModelMask& other) const {
  ModelMask out = *this;
  for (const auto& [name, t] : other.entries_) {
    if (Tensor* mine = out.find(name)) {
      SUBFEDAVG_CHECK(mine->shape() == t.shape(), "intersect shape for " << name);
      mine->mul_(t);
    } else {
      out.entries_.emplace_back(name, t);
    }
  }
  return out;
}

double ModelMask::jaccard_overlap(const ModelMask& a, const ModelMask& b) {
  SUBFEDAVG_CHECK(a.entries_.size() == b.entries_.size(), "mask coverage differs");
  std::size_t both = 0, either = 0;
  for (std::size_t e = 0; e < a.entries_.size(); ++e) {
    const auto& at = a.entries_[e].second;
    const auto& bt = b.entries_[e].second;
    SUBFEDAVG_CHECK(at.shape() == bt.shape(), "jaccard entry mismatch");
    for (std::size_t i = 0; i < at.numel(); ++i) {
      const bool ka = at[i] != 0.0f, kb = bt[i] != 0.0f;
      both += (ka && kb);
      either += (ka || kb);
    }
  }
  return either == 0 ? 1.0 : static_cast<double>(both) / static_cast<double>(either);
}

}  // namespace subfed

#include "snn/registry.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace ttfs::snn {

namespace {

std::string mib(std::size_t bytes) {
  std::ostringstream os;
  os.precision(3);
  os << static_cast<double>(bytes) / (1024.0 * 1024.0) << " MiB";
  return os.str();
}

}  // namespace

std::string RegistryStats::describe() const {
  std::ostringstream os;
  os << models << " model" << (models == 1 ? "" : "s") << " (" << warm_models << " warm, "
     << mib(warm_bytes);
  if (pack_budget_bytes != 0) os << "/" << mib(pack_budget_bytes);
  os << "), " << hits << " hits " << misses << " misses " << evictions << " evictions, "
     << swaps << " swap" << (swaps == 1 ? "" : "s");
  return os.str();
}

ModelHandle::ModelHandle(std::string id, std::uint64_t version,
                         std::shared_ptr<const SnnNetwork> net,
                         std::shared_ptr<const InferenceBackend> backend,
                         std::vector<std::int64_t> input_shape)
    : id_{std::move(id)},
      version_{version},
      net_{std::move(net)},
      backend_{std::move(backend)},
      input_shape_{std::move(input_shape)} {}

ModelRegistry::ModelRegistry(RegistryOptions opts) : opts_{opts} {}

std::shared_ptr<const ModelHandle> ModelRegistry::load(
    const std::string& id, std::shared_ptr<const SnnNetwork> net,
    std::shared_ptr<const InferenceBackend> backend, std::vector<std::int64_t> input_shape) {
  TTFS_CHECK_MSG(!id.empty(), "model id must be non-empty");
  TTFS_CHECK_MSG(net != nullptr, "model '" << id << "' needs a network");
  TTFS_CHECK_MSG(backend != nullptr, "model '" << id << "' needs a backend");
  TTFS_CHECK_MSG(input_shape.size() == 3, "model '" << id << "' input_shape must be (C, H, W)");
  for (const std::int64_t d : input_shape) TTFS_CHECK(d > 0);

  // Build the pack before touching the registry, and outside mu_ so that
  // acquires and run pins of every other model never wait out a build. A
  // backend that cannot run this network (a quantized backend over a net that
  // was never log-quantized) throws here and leaves every id, counter and
  // byte total as it was. The warm below re-ensures under mu_ and normally
  // takes the pack's fast path; an eviction of a handle sharing this net in
  // between only costs a rebuild there.
  backend->ensure_ready(*net);
  const util::MutexLock lock{mu_};
  std::shared_ptr<const ModelHandle> handle{new ModelHandle{
      id, next_version_++, std::move(net), std::move(backend), std::move(input_shape)}};
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    // Live swap: the mapping flips here; in-flight holders of the old handle
    // drain on the old pack. The old pack is deliberately NOT released —
    // running batches may be reading it — only de-accounted; it dies with
    // the handle's last reference.
    ++swaps_;
    const ModelHandle& old = *it->second.handle;
    if (old.warm()) warm_bytes_ -= old.pack_bytes();
    it->second.handle = handle;
    touch_locked(it->second);
  } else {
    ++loads_;
    lru_.push_front(id);
    entries_.emplace(id, Entry{handle, lru_.begin()});
  }
  warm_locked(*handle, /*count_miss=*/false);
  evict_over_budget_locked(handle.get());
  return handle;
}

std::shared_ptr<const ModelHandle> ModelRegistry::acquire(const std::string& id) {
  std::shared_ptr<const ModelHandle> handle = try_acquire(id);
  if (handle == nullptr) throw std::out_of_range("unknown model id '" + id + "'");
  return handle;
}

std::shared_ptr<const ModelHandle> ModelRegistry::try_acquire(const std::string& id) {
  const util::MutexLock lock{mu_};
  auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  touch_locked(it->second);
  return it->second.handle;
}

bool ModelRegistry::unload(const std::string& id) {
  const util::MutexLock lock{mu_};
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  const ModelHandle& old = *it->second.handle;
  if (old.warm()) warm_bytes_ -= old.pack_bytes();
  lru_.erase(it->second.lru);
  entries_.erase(it);
  ++unloads_;
  return true;
}

bool ModelRegistry::contains(const std::string& id) const {
  const util::MutexLock lock{mu_};
  return entries_.count(id) != 0;
}

std::vector<std::string> ModelRegistry::ids() const {
  const util::MutexLock lock{mu_};
  return {lru_.begin(), lru_.end()};
}

std::size_t ModelRegistry::size() const {
  const util::MutexLock lock{mu_};
  return entries_.size();
}

RegistryStats ModelRegistry::stats() const {
  const util::MutexLock lock{mu_};
  RegistryStats s;
  s.loads = loads_;
  s.swaps = swaps_;
  s.unloads = unloads_;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.models = entries_.size();
  for (const auto& [id, entry] : entries_) {
    if (entry.handle->warm()) ++s.warm_models;
  }
  s.warm_bytes = warm_bytes_;
  s.pack_budget_bytes = opts_.max_pack_bytes;
  return s;
}

ModelRegistry::RunPin& ModelRegistry::RunPin::operator=(RunPin&& other) noexcept {
  if (this != &other) {
    if (handle_ != nullptr) handle_->pins_.fetch_sub(1, std::memory_order_acq_rel);
    handle_ = std::move(other.handle_);
  }
  return *this;
}

ModelRegistry::RunPin::~RunPin() {
  if (handle_ != nullptr) handle_->pins_.fetch_sub(1, std::memory_order_acq_rel);
}

ModelRegistry::RunPin ModelRegistry::pin_for_run(
    const std::shared_ptr<const ModelHandle>& handle) {
  TTFS_CHECK_MSG(handle != nullptr, "pin_for_run needs a handle");
  const util::MutexLock lock{mu_};
  // Pinned before any warm/evict decision below; eviction only runs under
  // mu_, so no pack this pin relies on can be released from here on.
  handle->pins_.fetch_add(1, std::memory_order_acq_rel);
  auto it = entries_.find(handle->id());
  const bool resident = it != entries_.end() && it->second.handle == handle;
  if (resident) {
    touch_locked(it->second);
    if (handle->warm()) {
      ++hits_;
    } else {
      warm_locked(*handle, /*count_miss=*/true);
      evict_over_budget_locked(handle.get());
    }
  } else if (!handle->warm()) {
    // Stale handle (swapped out or unloaded while its requests were queued):
    // rebuild its pack off-budget so the drain completes bit-identically.
    // The pack dies with the handle, so nothing leaks past the drain.
    ++misses_;
    handle->backend().ensure_ready(handle->net());
    handle->warm_.store(true, std::memory_order_release);
  } else {
    ++hits_;
  }
  return RunPin{handle};
}

void ModelRegistry::warm_locked(const ModelHandle& handle, bool count_miss) {
  if (count_miss) ++misses_;
  // The backend decides what "warm" means for it: the float event pack, the
  // quantized pack, or nothing at all.
  handle.backend().ensure_ready(handle.net());
  const std::size_t bytes = handle.backend().resident_pack_bytes(handle.net());
  handle.pack_bytes_.store(bytes, std::memory_order_release);
  handle.warm_.store(true, std::memory_order_release);
  warm_bytes_ += bytes;
}

void ModelRegistry::cool_locked(const ModelHandle& handle) {
  handle.backend().release_pack(handle.net());
  warm_bytes_ -= handle.pack_bytes();
  handle.pack_bytes_.store(0, std::memory_order_release);
  handle.warm_.store(false, std::memory_order_release);
  ++evictions_;
}

void ModelRegistry::evict_over_budget_locked(const ModelHandle* protect) {
  if (opts_.max_pack_bytes == 0) return;
  // Coldest first (lru_ back). Pinned handles are skipped — a pack is never
  // released mid-batch — so a fully pinned registry may transiently sit over
  // budget; the next warm retries.
  auto it = lru_.rbegin();
  while (warm_bytes_ > opts_.max_pack_bytes && it != lru_.rend()) {
    const ModelHandle& candidate = *entries_.at(*it).handle;
    ++it;  // advance before a potential cool: cooling does not mutate lru_
    if (&candidate == protect) continue;
    if (!candidate.warm() || candidate.pack_bytes() == 0) continue;
    if (candidate.pins_.load(std::memory_order_acquire) != 0) continue;
    cool_locked(candidate);
  }
}

void ModelRegistry::touch_locked(Entry& entry) {
  if (entry.lru != lru_.begin()) lru_.splice(lru_.begin(), lru_, entry.lru);
}

}  // namespace ttfs::snn

#ifndef XSSD_SIM_EVENT_POOL_H_
#define XSSD_SIM_EVENT_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace xssd::sim {

/// \brief Move-only callback slot with inline (small-buffer) storage.
///
/// The scheduler hot path runs millions of tiny closures — typically a
/// module pointer plus a couple of integers. std::function's inline buffer
/// (16 bytes on libstdc++) is too small for most of them, so storing them
/// there would cost one heap allocation per Schedule(). EventFn widens the
/// inline buffer to kInlineBytes so those captures are stored in place;
/// only oversized or throwing-move callables fall back to the heap, and a
/// process-wide counter keeps that fallback observable (kernel_bench
/// reports it as allocs/event).
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  EventFn() noexcept {}
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <
      typename F, typename D = std::decay_t<F>,
      typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                  !std::is_same_v<D, std::nullptr_t> &&
                                  std::is_invocable_v<D&>>>
  EventFn(F&& f) {  // NOLINT(runtime/explicit)
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = [](void* b) { (*std::launder(reinterpret_cast<D*>(b)))(); };
      manage_ = &ManageInline<D>;
    } else {
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      manage_out_ = true;
      D* p = new D(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      invoke_ = [](void* b) {
        D* p;
        std::memcpy(&p, b, sizeof(p));
        (*p)();
      };
      manage_ = &ManageHeap<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(std::move(other)); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// True when the held callable lives out-of-line (capture too large for
  /// the inline buffer).
  bool heap_allocated() const noexcept { return manage_ && manage_out_; }

  /// Process-wide count of callbacks that spilled to the heap; the perf
  /// microbench divides the delta by events executed to get allocs/event.
  static uint64_t heap_fallbacks() {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  enum class Op { kMoveTo, kDestroy };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* dst);

  template <typename D>
  static void ManageInline(Op op, void* self, void* dst) {
    D* p = std::launder(reinterpret_cast<D*>(self));
    if (op == Op::kMoveTo) ::new (dst) D(std::move(*p));
    p->~D();
  }

  template <typename D>
  static void ManageHeap(Op op, void* self, void* dst) {
    D* p;
    std::memcpy(&p, self, sizeof(p));
    if (op == Op::kMoveTo) {
      std::memcpy(dst, &p, sizeof(p));
    } else {
      delete p;
    }
  }

  void MoveFrom(EventFn&& other) noexcept {
    if (other.manage_) other.manage_(Op::kMoveTo, other.buf_, buf_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    manage_out_ = other.manage_out_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
    other.manage_out_ = false;
  }

  void Reset() noexcept {
    if (manage_) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
    manage_out_ = false;
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  bool manage_out_ = false;

  inline static std::atomic<uint64_t> heap_fallbacks_{0};
};

/// \brief Slab allocator for scheduler event nodes.
///
/// Nodes are carved from chunked slabs and recycled through an intrusive
/// free list, so steady-state Schedule()/fire cycles perform zero heap
/// allocations: a campaign that keeps N events pending allocates
/// ceil(N / kChunkNodes) chunks once and then runs allocation-free
/// forever. Nodes are address-stable, which is what lets the timer wheel
/// link them into buckets intrusively via `next`.
class EventPool {
 public:
  struct Node {
    SimTime when;
    uint64_t seq;  // canonical key: local seq or cross stamp (simulator.h)
    Node* next;    // intrusive bucket / free-list link
    EventFn fn;
  };

  static constexpr std::size_t kChunkNodes = 1024;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  Node* Acquire(SimTime when, uint64_t seq, EventFn fn) {
    void* mem;
    if (free_ != nullptr) {
      mem = free_;
      free_ = free_->next;
    } else {
      if (bump_ == chunk_end_) NewChunk();
      mem = bump_;
      bump_ += sizeof(Node);
    }
    ++live_;
    ++acquires_;
    return ::new (mem) Node{when, seq, nullptr, std::move(fn)};
  }

  void Release(Node* n) {
    n->~Node();
    auto* slot = reinterpret_cast<FreeSlot*>(n);
    slot->next = free_;
    free_ = slot;
    --live_;
  }

  std::size_t chunks_allocated() const { return chunks_.size(); }
  std::size_t live_nodes() const { return live_; }
  uint64_t total_acquires() const { return acquires_; }

 private:
  struct FreeSlot {
    FreeSlot* next;
  };
  static_assert(sizeof(FreeSlot) <= sizeof(Node));
  static_assert(alignof(Node) <= alignof(std::max_align_t));

  void NewChunk() {
    chunks_.push_back(
        std::make_unique<unsigned char[]>(kChunkNodes * sizeof(Node)));
    bump_ = chunks_.back().get();
    chunk_end_ = bump_ + kChunkNodes * sizeof(Node);
  }

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  unsigned char* bump_ = nullptr;
  unsigned char* chunk_end_ = nullptr;
  FreeSlot* free_ = nullptr;
  std::size_t live_ = 0;
  uint64_t acquires_ = 0;
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_EVENT_POOL_H_

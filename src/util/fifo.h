// cmtos/util/fifo.h
//
// Growable double-ended FIFO that keeps its capacity.  A power-of-two ring
// over one heap buffer: it allocates nothing until the first push and
// then only when it outgrows its high-water mark, and popping never frees.
// std::deque, by contrast, allocates a map and a block on construction
// and frees and re-allocates blocks as a queue slides through them — for
// the link band queues and a source's fragment queue that was one heap
// allocation every few packets in steady state.  It also backs the §3.7
// stream buffer (transport/stream_buffer.h), which bounds it at the
// buffer's capacity and drops its newest OSDU through back()/pop_back().
//
// Not synchronised: each queue belongs to one shard.

#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "util/contract.h"

namespace cmtos {

template <typename T>
class Fifo {
 public:
  Fifo() noexcept = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  Fifo(Fifo&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  Fifo& operator=(Fifo&& o) noexcept {
    if (this != &o) {
      destroy();
      buf_ = std::exchange(o.buf_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~Fifo() { destroy(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }

  /// The i-th element counted from the front.  Precondition: i < size().
  T& operator[](std::size_t i) noexcept { return buf_[slot(i)]; }
  const T& operator[](std::size_t i) const noexcept { return buf_[slot(i)]; }
  T& front() noexcept { return (*this)[0]; }
  const T& front() const noexcept { return (*this)[0]; }
  T& back() noexcept { return (*this)[size_ - 1]; }

  void push_back(T&& v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + slot(size_))) T(std::move(v));
    ++size_;
  }
  void push_front(T&& v) {
    if (size_ == cap_) grow();
    head_ = (head_ + cap_ - 1) & (cap_ - 1);
    ::new (static_cast<void*>(buf_ + head_)) T(std::move(v));
    ++size_;
  }
  /// Precondition (both pops): !empty().
  void pop_front() noexcept {
    CMTOS_DCHECK(size_ > 0);
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }
  void pop_back() noexcept {
    CMTOS_DCHECK(size_ > 0);
    std::destroy_at(buf_ + slot(size_ - 1));
    --size_;
  }
  /// Destroys every element; the capacity is kept.
  void clear() noexcept {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  std::size_t slot(std::size_t i) const noexcept { return (head_ + i) & (cap_ - 1); }

  void grow() {
    const std::size_t cap = cap_ == 0 ? 4 : 2 * cap_;
    T* buf = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      ::new (static_cast<void*>(buf + i)) T(std::move(from));
      std::destroy_at(&from);
    }
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }
  void destroy() noexcept {
    clear();
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = nullptr;
    cap_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cmtos

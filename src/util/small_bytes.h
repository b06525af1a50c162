// cmtos/util/small_bytes.h
//
// Byte string with inline room for N bytes.  Strings that fit live inside
// the object and cost no heap allocation; longer ones spill to one heap
// buffer (an exact reserve() allocates exactly once).  net::Packet keeps
// its wire header in one of these, after MTL's small header mbuf: a data
// TPDU's header fits inline and its media body rides beside it as a
// PayloadView, so a data packet carries no heap buffer of its own.
//
// The surface is the subset of std::vector<std::uint8_t> the wire code
// uses (size/data/begin/end/operator[]/resize/assign/push_back, brace
// initialisation), plus
// append() for ByteWriter.  A span<const std::uint8_t> binds to it through
// span's contiguous-range constructor.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>

#include "util/contract.h"

namespace cmtos {

template <std::size_t N>
class SmallBytes {
  static_assert(N >= sizeof(std::uint8_t*), "inline room must cover the heap pointer");

 public:
  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  SmallBytes() noexcept {}  // NOLINT(modernize-use-equals-default): union member
  explicit SmallBytes(std::span<const std::uint8_t> b) { append(b.data(), b.size()); }
  SmallBytes(std::initializer_list<std::uint8_t> il) { append(il.begin(), il.size()); }
  SmallBytes(const SmallBytes& o) { append(o.data(), o.size()); }
  SmallBytes(SmallBytes&& o) noexcept { steal(o); }
  SmallBytes& operator=(const SmallBytes& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~SmallBytes() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }
  std::uint8_t* data() noexcept { return on_heap() ? heap_ : inline_; }
  const std::uint8_t* data() const noexcept { return on_heap() ? heap_ : inline_; }
  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }
  std::uint8_t& operator[](std::size_t i) noexcept { return data()[i]; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }

  /// Empties the string; the capacity (inline or heap) is kept.
  void clear() noexcept { size_ = 0; }
  /// Ensures room for `n` bytes with at most one allocation of exactly
  /// `n` bytes.
  void reserve(std::size_t n) {
    if (n > cap_) reallocate(n);
  }
  /// Truncates, or zero-extends, to `n` bytes.
  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) std::memset(data() + size_, 0, n - size_);
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(std::size_t n, std::uint8_t v) {
    size_ = 0;
    reserve(n);
    std::memset(data(), v, n);
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(const std::uint8_t* first, const std::uint8_t* last) {
    size_ = 0;
    append(first, static_cast<std::size_t>(last - first));
  }
  void push_back(std::uint8_t b) {
    if (size_ == cap_) reallocate(grown(size_ + 1u));
    data()[size_++] = b;
  }
  /// Precondition: `p` does not point into this string.
  void append(const std::uint8_t* p, std::size_t n) {
    if (size_ + n > cap_) reallocate(grown(size_ + n));
    if (n > 0) std::memmove(data() + size_, p, n);
    size_ += static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const SmallBytes& a, const SmallBytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool on_heap() const noexcept { return cap_ > N; }
  std::size_t grown(std::size_t need) const {
    return std::max<std::size_t>(need, 2 * static_cast<std::size_t>(cap_));
  }
  void reallocate(std::size_t n) {
    CMTOS_ASSERT(n <= 0xffffffffu, "small_bytes.capacity");
    auto* p = static_cast<std::uint8_t*>(::operator new(n));
    if (size_ > 0) std::memcpy(p, data(), size_);
    release();
    heap_ = p;
    cap_ = static_cast<std::uint32_t>(n);
  }
  void release() noexcept {
    if (on_heap()) ::operator delete(heap_);
    cap_ = N;
  }
  /// Takes `o`'s contents, leaving it empty and inline.  Precondition:
  /// this string holds no heap buffer.
  void steal(SmallBytes& o) noexcept {
    if (o.on_heap()) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      o.cap_ = N;
    } else if (o.size_ > 0) {
      std::memcpy(inline_, o.inline_, o.size_);
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  union {
    std::uint8_t inline_[N];
    std::uint8_t* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;  // > N exactly when the bytes live in heap_
};

}  // namespace cmtos

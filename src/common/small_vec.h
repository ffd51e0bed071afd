// SmallVec<T, N>: a vector with N elements of inline storage, for pipeline hot-path
// containers whose common sizes are tiny and statically known — level selections (1-4
// entries), plan steps (1-3), batch waiter lists, view-history buffers. Falls back to
// the heap transparently past N, so capacity guesses are a performance knob, never a
// correctness constraint.
//
// Deliberately minimal: exactly the std::vector surface this codebase uses (iteration,
// indexing, push/emplace, reserve/clear, move/copy). Grow-only capacity, strong
// exception safety not guaranteed (the simulation is noexcept-movable value types).
#ifndef ICG_COMMON_SMALL_VEC_H_
#define ICG_COMMON_SMALL_VEC_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace icg {

template <typename T, std::size_t N>
class SmallVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using size_type = std::size_t;

  SmallVec() = default;

  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) {
      push_back(v);
    }
  }

  template <typename InputIt>
    requires(!std::is_integral_v<InputIt>)
  SmallVec(InputIt first, InputIt last) {
    if constexpr (std::forward_iterator<InputIt>) {
      reserve(static_cast<size_type>(std::distance(first, last)));
    }
    for (; first != last; ++first) {
      push_back(*first);
    }
  }

  SmallVec(const SmallVec& other) {
    reserve(other.size_);
    for (size_type i = 0; i < other.size_; ++i) {
      ::new (data_ + i) T(other.data_[i]);
    }
    size_ = other.size_;
  }

  SmallVec(SmallVec&& other) noexcept {
    StealOrMoveFrom(std::move(other));
  }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (size_type i = 0; i < other.size_; ++i) {
        ::new (data_ + i) T(other.data_[i]);
      }
      size_ = other.size_;
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      DestroyAll();
      if (!IsInline()) {
        ::operator delete(data_);
      }
      data_ = InlinePtr();
      capacity_ = N;
      size_ = 0;
      StealOrMoveFrom(std::move(other));
    }
    return *this;
  }

  ~SmallVec() {
    DestroyAll();
    if (!IsInline()) {
      ::operator delete(data_);
    }
  }

  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_type capacity() const { return capacity_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  T& operator[](size_type i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_type i) const {
    assert(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void reserve(size_type n) {
    if (n > capacity_) {
      Grow(n);
    }
  }

  void clear() {
    DestroyAll();
    size_ = 0;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... A>
  T& emplace_back(A&&... args) {
    if (size_ == capacity_) {
      Grow(capacity_ * 2);
    }
    T* slot = ::new (data_ + size_) T(std::forward<A>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    assert(size_ > 0);
    data_[--size_].~T();
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    if (a.size_ != b.size_) {
      return false;
    }
    for (size_type i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "SmallVec does not support over-aligned element types");

  T* InlinePtr() { return reinterpret_cast<T*>(inline_); }
  bool IsInline() const { return data_ == reinterpret_cast<const T*>(inline_); }

  void DestroyAll() {
    for (size_type i = 0; i < size_; ++i) {
      data_[i].~T();
    }
  }

  void StealOrMoveFrom(SmallVec&& other) noexcept {
    if (other.IsInline()) {
      for (size_type i = 0; i < other.size_; ++i) {
        ::new (data_ + i) T(std::move(other.data_[i]));
      }
      size_ = other.size_;
      other.clear();
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.InlinePtr();
      other.capacity_ = N;
      other.size_ = 0;
    }
  }

  void Grow(size_type want) {
    const size_type new_cap = want < 2 * capacity_ ? 2 * capacity_ : want;
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (size_type i = 0; i < size_; ++i) {
      ::new (fresh + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!IsInline()) {
      ::operator delete(data_);
    }
    data_ = fresh;
    capacity_ = new_cap;
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = reinterpret_cast<T*>(inline_);
  size_type size_ = 0;
  size_type capacity_ = N;
};

}  // namespace icg

#endif  // ICG_COMMON_SMALL_VEC_H_

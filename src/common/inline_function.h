// InlineFunction<Sig, Capacity>: a small-buffer-optimized std::function replacement for
// the simulation and pipeline hot paths.
//
// std::function's inline buffer on mainstream standard libraries tops out around 16
// bytes, so the closures this codebase schedules by the million — network deliveries
// capturing a task plus accounting state, pipeline sinks capturing a shared_ptr and a
// level vector — spill to the heap on every construction. InlineFunction raises the
// inline capacity (chosen per use site) and keeps a transparent deep-copying heap
// fallback for oversized callables, so correctness never depends on the capacity guess.
//
// Semantics match std::function where it matters here: copyable (deep copy of the
// callable), movable (source becomes empty), null-comparable, const-invocable. Unlike
// std::function, move-only callables (unique_ptr captures and the like) are accepted on
// both sides of the SBO boundary: they move fine, and only an actual *copy* of the
// wrapper is an error (it aborts), so hot paths that hand closures around by move never
// pay for copyability they don't use.
#ifndef ICG_COMMON_INLINE_FUNCTION_H_
#define ICG_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

namespace icg {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(const InlineFunction& other) : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->copy(storage_, other.storage_);
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(const InlineFunction& other) {
    if (this != &other) {
      InlineFunction tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction& operator=(F&& f) {
    *this = InlineFunction(std::forward<F>(f));
    return *this;
  }

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) { return f.ops_ == nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(storage_), std::forward<Args>(args)...);
  }

  // True when a callable of type F is stored inline: it fits the capacity and is
  // nothrow-move-constructible. A by-copy capture of a `const std::string&` parameter
  // yields a `const std::string` member, whose "move" is a throwing copy, so such a
  // closure spills at any capacity; capture `key = std::string(key)` instead.
  template <typename F>
  static constexpr bool StoresInline() {
    return FitsInline<std::decay_t<F>>();
  }

 private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    void (*copy)(unsigned char*, const unsigned char*);
    // Move-constructs dst from src and destroys src (trivial pointer steal for the heap
    // representation), so moved-from functions hold no state.
    void (*relocate)(unsigned char*, unsigned char*);
    void (*destroy)(unsigned char*);
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* Stored(unsigned char* s) {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static const D* Stored(const unsigned char* s) {
    return std::launder(reinterpret_cast<const D*>(s));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](unsigned char* s, Args&&... args) -> R {
        return static_cast<R>((*Stored<D>(s))(std::forward<Args>(args)...));
      },
      /*copy=*/[](unsigned char* dst, const unsigned char* src) {
        if constexpr (std::is_copy_constructible_v<D>) {
          ::new (static_cast<void*>(dst)) D(*Stored<D>(src));
        } else {
          (void)dst;
          (void)src;
          std::abort();  // copying a wrapper that holds a move-only callable
        }
      },
      /*relocate=*/[](unsigned char* dst, unsigned char* src) {
        ::new (static_cast<void*>(dst)) D(std::move(*Stored<D>(src)));
        Stored<D>(src)->~D();
      },
      /*destroy=*/[](unsigned char* s) { Stored<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](unsigned char* s, Args&&... args) -> R {
        return static_cast<R>((**Stored<D*>(s))(std::forward<Args>(args)...));
      },
      /*copy=*/[](unsigned char* dst, const unsigned char* src) {
        if constexpr (std::is_copy_constructible_v<D>) {
          ::new (static_cast<void*>(dst)) D*(new D(**Stored<D*>(src)));
        } else {
          (void)dst;
          (void)src;
          std::abort();  // copying a wrapper that holds a move-only callable
        }
      },
      /*relocate=*/[](unsigned char* dst, unsigned char* src) {
        ::new (static_cast<void*>(dst)) D*(*Stored<D*>(src));
        // Pointer stolen; nothing to destroy in src.
      },
      /*destroy=*/[](unsigned char* s) { delete *Stored<D*>(s); },
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[Capacity];
};

}  // namespace icg

#endif  // ICG_COMMON_INLINE_FUNCTION_H_

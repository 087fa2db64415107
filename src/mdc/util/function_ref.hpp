// A non-owning, trivially copyable reference to a callable.
//
// The epoch engine hands closures to ThreadPool::parallelRanges once per
// phase per epoch; binding them into a std::function would heap-allocate
// on every call (the captures exceed any SBO buffer).  FunctionRef is the
// classic two-pointer erasure — a void* to the callable plus a thunk —
// so passing a lambda across the pool API costs nothing and allocates
// never.  The referenced callable must outlive the FunctionRef, which
// the pool's fork/join shape guarantees: the caller's frame (and the
// lambda living in it) cannot unwind before every job has finished.
#pragma once

#include <type_traits>
#include <utility>

namespace mdc {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit, like
  // std::function — call sites pass lambdas directly.
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace mdc

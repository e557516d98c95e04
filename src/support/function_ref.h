/**
 * @file
 * FunctionRef: a non-owning reference to a callable.
 *
 * Visitors on per-object paths (GC roots, mapping-table entries) are
 * called once per object, and a std::function there costs a type
 * erased call through a manager plus, for large captures, an
 * allocation at each construction. A FunctionRef is two pointers: the
 * callable's address and a thunk that calls it. It does not extend
 * the callable's lifetime, so it is for parameters only: the callable
 * must outlive the call that receives the reference.
 */

#ifndef BEEHIVE_SUPPORT_FUNCTION_REF_H
#define BEEHIVE_SUPPORT_FUNCTION_REF_H

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace beehive {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                 std::is_invocable_r_v<R, F &, Args...>)
    FunctionRef(F &&f) noexcept
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, Args... args) -> R {
              return std::invoke(
                  *static_cast<std::remove_reference_t<F> *>(obj),
                  std::forward<Args>(args)...);
          })
    {
    }

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_;
    R (*call_)(void *, Args...);
};

} // namespace beehive

#endif // BEEHIVE_SUPPORT_FUNCTION_REF_H

// Field-list plumbing. Each options struct (and each flat wire struct)
// declares its serialized fields exactly once, as a
// `for_each_field(opts, visit)` next to its definition that calls `visit`
// with every field, in wire order. cache/fields.hpp derives the fingerprint,
// the codecs and the sweep's memo keys from that one list. The counts below
// check each list against its struct at compile time, so a member added
// without a list entry fails the build.
#pragma once

#include <concepts>
#include <cstddef>
#include <type_traits>

namespace parallax::util {

/// `Options` is `Struct` behind any reference or const: every
/// for_each_field takes const structs (writers) and mutable ones (readers).
template <typename Options, typename Struct>
concept FieldsOf = std::same_as<std::remove_cvref_t<Options>, Struct>;

/// How many fields for_each_field visits in a T.
template <typename T>
consteval std::size_t visited_field_count() {
  T value{};
  std::size_t count = 0;
  for_each_field(value, [&count](auto&... fields) {
    count = sizeof...(fields);
  });
  return count;
}

namespace detail {

/// Converts to any field type; only ever named in unevaluated braced
/// initializers, so it needs no definition.
struct AnyField {
  template <typename T>
  constexpr operator T&() const noexcept;
};

}  // namespace detail

/// The number of members of aggregate T: the longest braced initializer
/// T{a, b, ...} that still compiles.
template <typename T, typename... Fields>
consteval std::size_t aggregate_field_count() {
  if constexpr (requires { T{Fields{}..., detail::AnyField{}}; }) {
    return aggregate_field_count<T, Fields..., detail::AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

/// True when T's for_each_field visits every member but `unlisted` ones;
/// static_assert it next to the list's users.
template <typename T, std::size_t unlisted = 0>
consteval bool lists_every_field() {
  return visited_field_count<T>() + unlisted == aggregate_field_count<T>();
}

}  // namespace parallax::util

// Per-field schema tests for the options field lists (cache/fields.hpp).
// For every leaf options struct, each visited field is perturbed on its own
// and must round-trip through the sweep-spec codec, move the struct's
// fingerprint away from the default's and from every other single-field
// perturbation, and move the result key (and, for GraphineOptions, the
// placement key). That each list covers its whole struct is checked at
// compile time by the static_asserts in cache/fields.hpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>

#include "cache/fields.hpp"
#include "cache/fingerprint.hpp"
#include "shard/spec.hpp"

namespace pc = parallax::cache;
namespace sh = parallax::shard;

namespace {

/// A different valid value: a flipped bool, the next enumerator (every
/// default is the first one), +1 for integers, a changed double.
template <typename F>
void perturb(F& value) {
  if constexpr (std::is_enum_v<F>) {
    value = static_cast<F>(static_cast<std::underlying_type_t<F>>(value) + 1);
  } else if constexpr (std::is_same_v<F, bool>) {
    value = !value;
  } else if constexpr (std::is_integral_v<F>) {
    value = static_cast<F>(value + 1);
  } else {
    value = value * 2.0 + 0.5;
  }
}

template <typename T>
void perturb_field(T& value, std::size_t index) {
  std::size_t i = 0;
  for_each_field(value, [&](auto&... fields) {
    ((i++ == index ? perturb(fields) : void()), ...);
  });
}

template <typename T>
std::string field_bytes(const T& value) {
  pc::Writer writer;
  pc::write_fields(writer, value);
  return writer.take();
}

sh::SweepSpec base_spec() {
  parallax::circuit::Circuit bell(2, "bell");
  bell.h(0);
  bell.cx(0, 1);
  sh::SweepSpec spec;
  spec.circuits = {{"bell", bell}};
  spec.techniques = {"parallax"};
  spec.machines = {
      {"quera", parallax::hardware::HardwareConfig::quera_aquila_256()}};
  spec.options.shots = parallax::shots::ShotOptions{};
  return spec;
}

pc::Digest128 result_key(const sh::SweepSpec& spec) {
  const auto& options = spec.options;
  return pc::result_key(pc::fingerprint(spec.circuits[0].circuit), "parallax",
                        {"transpile", "graphine-placement"},
                        spec.machines[0].config, options.compile,
                        &options.noise, &*options.shots);
}

pc::Digest128 placement_key(const sh::SweepSpec& spec) {
  return pc::placement_key(pc::fingerprint(spec.circuits[0].circuit),
                           spec.options.compile.placement);
}

/// Where a leaf struct lives in a sweep spec, and the fingerprint its fields
/// feed most directly (the result key for structs without one of their own).
template <typename T>
struct Slot {
  T& (*in)(sh::SweepSpec&);
  pc::Digest128 (*fingerprint)(const sh::SweepSpec&);
};

template <typename T>
void check_every_field(const Slot<T>& slot) {
  sh::SweepSpec base = base_spec();
  const std::size_t n_fields = parallax::util::visited_field_count<T>();
  ASSERT_GT(n_fields, 0u);
  std::set<pc::Digest128> fingerprints = {slot.fingerprint(base)};
  for (std::size_t i = 0; i < n_fields; ++i) {
    SCOPED_TRACE("field " + std::to_string(i));
    sh::SweepSpec spec = base_spec();
    perturb_field(slot.in(spec), i);
    ASSERT_NE(field_bytes(slot.in(spec)), field_bytes(slot.in(base)));

    sh::SweepSpec parsed =
        sh::parse_sweep_spec(sh::serialize_sweep_spec(spec));
    EXPECT_EQ(field_bytes(slot.in(parsed)), field_bytes(slot.in(spec)));
    EXPECT_EQ(sh::sweep_spec_payload(parsed), sh::sweep_spec_payload(spec));

    EXPECT_TRUE(fingerprints.insert(slot.fingerprint(spec)).second)
        << "fingerprint equals the default's or another field's";
    EXPECT_NE(result_key(spec), result_key(base));
    if constexpr (std::is_same_v<T, parallax::placement::GraphineOptions>) {
      EXPECT_NE(placement_key(spec), placement_key(base));
    }
  }
}

pc::Digest128 compile_fingerprint(const sh::SweepSpec& spec) {
  return pc::fingerprint(spec.options.compile);
}

}  // namespace

TEST(FieldLists, GraphineOptions) {
  check_every_field<parallax::placement::GraphineOptions>(
      {[](sh::SweepSpec& s) -> auto& { return s.options.compile.placement; },
       [](const sh::SweepSpec& s) {
         return pc::fingerprint(s.options.compile.placement);
       }});
}

TEST(FieldLists, TranspileOptions) {
  check_every_field<parallax::circuit::TranspileOptions>(
      {[](sh::SweepSpec& s) -> auto& { return s.options.compile.transpile; },
       compile_fingerprint});
}

TEST(FieldLists, DiscretizeOptions) {
  check_every_field<parallax::placement::DiscretizeOptions>(
      {[](sh::SweepSpec& s) -> auto& { return s.options.compile.discretize; },
       compile_fingerprint});
}

TEST(FieldLists, SchedulerOptions) {
  check_every_field<parallax::compiler::SchedulerOptions>(
      {[](sh::SweepSpec& s) -> auto& { return s.options.compile.scheduler; },
       compile_fingerprint});
}

TEST(FieldLists, AodSelectionOptions) {
  check_every_field<parallax::compiler::AodSelectionOptions>(
      {[](sh::SweepSpec& s) -> auto& {
         return s.options.compile.aod_selection;
       },
       compile_fingerprint});
}

TEST(FieldLists, FidelityOptions) {
  check_every_field<parallax::noise::FidelityOptions>(
      {[](sh::SweepSpec& s) -> auto& { return s.options.compile.fidelity; },
       compile_fingerprint});
}

TEST(FieldLists, NoiseOptions) {
  check_every_field<parallax::noise::NoiseOptions>(
      {[](sh::SweepSpec& s) -> auto& { return s.options.noise; }, result_key});
}

TEST(FieldLists, ShotOptions) {
  check_every_field<parallax::shots::ShotOptions>(
      {[](sh::SweepSpec& s) -> auto& { return *s.options.shots; },
       result_key});
}

TEST(FieldLists, HardwareConfig) {
  check_every_field<parallax::hardware::HardwareConfig>(
      {[](sh::SweepSpec& s) -> auto& { return s.machines[0].config; },
       [](const sh::SweepSpec& s) {
         return pc::fingerprint(s.machines[0].config);
       }});
}

TEST(FieldLists, DecodeKeepsRangeChecks) {
  // A proposal mode or fidelity model past its last enumerator, or a grid
  // with no sites, is a ReadError on decode, as with the hand codecs.
  sh::SweepSpec proposal = base_spec();
  proposal.options.compile.placement.proposal =
      static_cast<parallax::placement::ProposalMode>(3);
  EXPECT_THROW((void)sh::parse_sweep_spec(sh::serialize_sweep_spec(proposal)),
               pc::ReadError);
  sh::SweepSpec fidelity = base_spec();
  fidelity.options.compile.fidelity.model =
      static_cast<parallax::noise::FidelityModel>(2);
  EXPECT_THROW((void)sh::parse_sweep_spec(sh::serialize_sweep_spec(fidelity)),
               pc::ReadError);
  sh::SweepSpec grid = base_spec();
  grid.machines[0].config.grid_side = 0;
  EXPECT_THROW((void)sh::parse_sweep_spec(sh::serialize_sweep_spec(grid)),
               pc::ReadError);
}

// Internal declarations shared by the nine Table III workloads: their
// factories and the input memo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "workloads/workload.h"

namespace slc {

std::unique_ptr<Workload> make_jmeint(WorkloadScale scale);
std::unique_ptr<Workload> make_blackscholes(WorkloadScale scale);
std::unique_ptr<Workload> make_dct(WorkloadScale scale);
std::unique_ptr<Workload> make_fwt(WorkloadScale scale);
std::unique_ptr<Workload> make_transpose(WorkloadScale scale);
std::unique_ptr<Workload> make_backprop(WorkloadScale scale);
std::unique_ptr<Workload> make_nn(WorkloadScale scale);
std::unique_ptr<Workload> make_srad1(WorkloadScale scale);
std::unique_ptr<Workload> make_srad2(WorkloadScale scale);

/// One workload input as capture codes (workloads/data_gen.h).
using InputCodes = std::variant<std::vector<uint8_t>, std::vector<uint16_t>>;

/// The process-wide input memo. Returns the codes `make()` builds for
/// (workload, scale): the first call for a key runs `make` under the memo's
/// one lock, and the entry is never erased, so the reference stays valid for
/// the life of the process. An input is a pure function of its key, so every
/// later init of the workload decodes the same codes instead of generating
/// them again.
const InputCodes& memoized_input(const std::string& workload, WorkloadScale scale,
                                 const std::function<InputCodes()>& make);

/// memoized_input as a typed span; `make` returns a std::vector of codes.
template <typename Make>
auto input_codes(const std::string& workload, WorkloadScale scale, Make make) {
  using Codes = std::invoke_result_t<Make>;
  return std::span<const typename Codes::value_type>(
      std::get<Codes>(memoized_input(workload, scale, [&] { return InputCodes(make()); })));
}

/// What the memo holds at one scale.
struct InputMemoStats {
  size_t entries = 0;
  size_t bytes = 0;  ///< code bytes over all entries
};
InputMemoStats input_memo_stats(WorkloadScale scale);

}  // namespace slc

#include "core/tree_selector.h"

#include <array>
#include <numeric>

namespace slc {

namespace {

// Window sizes in selection order. 6 and 12 are the TSLC-OPT extra nodes:
// a 6-symbol window is a level-3 node (4 symbols) plus the adjacent level-2
// node; a 12-symbol window is a level-4 node (8) plus the adjacent level-3
// node. They start at the alignment of the larger parent so each window stays
// inside one 16-symbol decoding way.
struct WindowClass {
  size_t size;
  size_t stride;  // start alignment
  bool opt_only;
};

constexpr std::array<WindowClass, 7> kClasses = {{
    {1, 1, false},
    {2, 2, false},
    {4, 4, false},
    {6, 8, true},
    {8, 8, false},
    {12, 16, true},
    {16, 16, false},
}};
static_assert(kClasses.back().size <= kMaxApproxSymbols);

// Blocks up to this many symbols (512 B) keep select()'s prefix sum on the
// stack.
constexpr size_t kStackSymbols = 256;

/// prefix[i] = lens[0] + ... + lens[i-1], so window [s, s+c) sums to
/// prefix[s+c] - prefix[s]. `prefix` holds lens.size() + 1 entries.
void prefix_sum(std::span<const uint16_t> lens, size_t* prefix) {
  prefix[0] = 0;
  for (size_t i = 0; i < lens.size(); ++i) prefix[i + 1] = prefix[i] + lens[i];
}

}  // namespace

size_t TreeSlcSelector::comp_size_bits(std::span<const uint16_t> code_lens) {
  return std::accumulate(code_lens.begin(), code_lens.end(), size_t{0});
}

std::optional<TreeCandidate> TreeSlcSelector::select(std::span<const uint16_t> code_lens,
                                                     size_t extra_bits) const {
  const size_t n = code_lens.size();
  if (extra_bits == 0) return std::nullopt;
  size_t stack_prefix[kStackSymbols + 1];
  std::vector<size_t> heap_prefix;
  size_t* prefix = stack_prefix;
  if (n > kStackSymbols) {
    heap_prefix.resize(n + 1);
    prefix = heap_prefix.data();
  }
  prefix_sum(code_lens, prefix);
  for (const WindowClass& wc : kClasses) {
    if (wc.opt_only && !extra_nodes_) continue;
    for (size_t start = 0; start + wc.size <= n; start += wc.stride) {
      const size_t sum = prefix[start + wc.size] - prefix[start];
      if (sum >= extra_bits) return TreeCandidate{start, wc.size, sum};
    }
  }
  return std::nullopt;
}

std::vector<TreeCandidate> TreeSlcSelector::windows(std::span<const uint16_t> code_lens) const {
  std::vector<TreeCandidate> out;
  const size_t n = code_lens.size();
  std::vector<size_t> prefix(n + 1);
  prefix_sum(code_lens, prefix.data());
  for (const WindowClass& wc : kClasses) {
    if (wc.opt_only && !extra_nodes_) continue;
    for (size_t start = 0; start + wc.size <= n; start += wc.stride)
      out.push_back(TreeCandidate{start, wc.size, prefix[start + wc.size] - prefix[start]});
  }
  return out;
}

}  // namespace slc

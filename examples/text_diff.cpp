// Line-oriented text diff built on the library's LCS machinery.
//
//   build/examples/text_diff [file_a file_b]
//
// Each line is hashed to one symbol; Hirschberg's linear-space LCS recovers
// the common-line backbone, from which a unified-style diff is emitted. A
// semi-local kernel over the line sequences additionally reports which
// region of file B best matches the whole of file A (useful when a block of
// text moved wholesale). With no arguments a small demo pair is used.
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "lcs/hirschberg.hpp"
#include "util/types.hpp"

using namespace semilocal;

namespace {

std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Maps each distinct line to a dense symbol id.
Sequence encode_lines(const std::vector<std::string>& lines,
                      std::unordered_map<std::string, Symbol>& ids) {
  Sequence out;
  out.reserve(lines.size());
  for (const auto& l : lines) {
    const auto [it, inserted] = ids.emplace(l, static_cast<Symbol>(ids.size()));
    out.push_back(it->second);
  }
  return out;
}

std::vector<std::string> demo_a() {
  return {"#include <stdio.h>", "", "int main(void) {", "  int x = 1;",
          "  printf(\"%d\\n\", x);", "  return 0;", "}"};
}

std::vector<std::string> demo_b() {
  return {"#include <stdio.h>", "#include <stdlib.h>", "", "int main(void) {",
          "  int x = 2;", "  printf(\"%d\\n\", x);", "  return EXIT_SUCCESS;", "}"};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> lines_a;
  std::vector<std::string> lines_b;
  if (argc == 3) {
    std::ifstream fa(argv[1]);
    std::ifstream fb(argv[2]);
    if (!fa || !fb) {
      std::cerr << "cannot open input files\n";
      return 1;
    }
    lines_a = read_lines(fa);
    lines_b = read_lines(fb);
  } else {
    lines_a = demo_a();
    lines_b = demo_b();
    std::cout << "(no files given; diffing a built-in demo pair)\n\n";
  }

  std::unordered_map<std::string, Symbol> ids;
  const Sequence a = encode_lines(lines_a, ids);
  const Sequence b = encode_lines(lines_b, ids);

  // 1. The diff itself: common backbone via Hirschberg, then a two-pointer
  // emit of -/+/space lines.
  const auto common = lcs_hirschberg(a, b).subsequence;
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t ic = 0;
  Index removed = 0;
  Index added = 0;
  while (ia < a.size() || ib < b.size()) {
    if (ic < common.size() && ia < a.size() && a[ia] == common[ic] && ib < b.size() &&
        b[ib] == common[ic]) {
      std::cout << "  " << lines_a[ia] << '\n';
      ++ia;
      ++ib;
      ++ic;
    } else if (ia < a.size() && (ic >= common.size() || a[ia] != common[ic])) {
      std::cout << "- " << lines_a[ia] << '\n';
      ++ia;
      ++removed;
    } else {
      std::cout << "+ " << lines_b[ib] << '\n';
      ++ib;
      ++added;
    }
  }
  std::cout << "\n" << removed << " line(s) removed, " << added << " added, "
            << common.size() << " unchanged\n";

  // 2. Block-move hint from the semi-local kernel: where in B does the whole
  // of A embed best?
  if (!a.empty() && !b.empty()) {
    const QueryIndex index(semi_local_kernel(a, b));
    const Index width = std::min<Index>(static_cast<Index>(b.size()),
                                        static_cast<Index>(a.size()));
    Index best_start = 0;
    Index best = -1;
    for (Index j0 = 0; j0 + width <= static_cast<Index>(b.size()); ++j0) {
      const Index s = index.string_substring(j0, j0 + width);
      if (s > best) {
        best = s;
        best_start = j0;
      }
    }
    std::cout << "best embedding of A inside B: lines [" << best_start << ", "
              << best_start + width << ") share " << best << "/" << a.size()
              << " lines with A\n";
  }
  return 0;
}

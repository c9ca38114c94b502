// Genome comparison: the paper's real-life scenario on synthetic virus
// genomes (see DESIGN.md for the dataset substitution).
//
//   build/examples/genome_compare [genome_length] [fasta_out_dir]
//
// Generates a pair of related genomes from a common ancestor, writes them as
// FASTA, computes the semi-local kernel with the parallel hybrid algorithm,
// and uses the kernel's substring queries to produce a window-identity
// profile: which regions of genome B best match the whole of genome A --
// the kind of analysis that needs *many* LCS scores and where one kernel
// replaces thousands of DP runs.
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "util/fasta.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace semilocal;

int main(int argc, char** argv) {
  const Index genome_length = argc > 1 ? std::atoll(argv[1]) : 30000;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  // 1. Build the dataset: one ancestor, two diverged descendants.
  GenomeModel model;
  model.length = genome_length;
  MutationModel mutations;
  mutations.substitution_rate = 0.03;
  mutations.indel_rate = 0.003;
  const auto [rec_a, rec_b] = generate_genome_pair(model, mutations, /*seed=*/2024);
  {
    std::ofstream fasta(out_dir + "/genome_pair.fasta");
    write_fasta(fasta, {rec_a, rec_b});
  }
  std::cout << "genomes: " << rec_a.id << " (" << rec_a.length() << " bp), " << rec_b.id
            << " (" << rec_b.length() << " bp) -> genome_pair.fasta\n";

  const Sequence a = pack_dna(rec_a.residues);
  const Sequence b = pack_dna(rec_b.residues);

  // 2. One semi-local kernel for the pair (parallel hybrid algorithm).
  Timer t;
  const auto kernel = semi_local_kernel(
      a, b, {.strategy = Strategy::kHybridTiled, .parallel = true});
  std::cout << "kernel built in " << t.seconds() << " s\n";
  const double identity =
      static_cast<double>(kernel.lcs()) / static_cast<double>(std::max(a.size(), b.size()));
  std::cout << "global LCS = " << kernel.lcs() << "  (identity "
            << std::fixed << std::setprecision(1) << 100.0 * identity << "%)\n\n";

  // 3. Homology search: take a gene-sized fragment of A, build ONE kernel
  // of (fragment, B), and read off LCS(fragment, b[w0, w1)) for every
  // sliding window -- locating where the fragment lives in B without a
  // single per-window alignment.
  const Index frag_len = std::max<Index>(1, genome_length / 10);
  const Index frag_start = genome_length / 3;
  const SequenceView fragment{a.data() + frag_start, static_cast<std::size_t>(frag_len)};
  t.reset();
  const auto frag_kernel = semi_local_kernel(
      fragment, b, {.strategy = Strategy::kHybridTiled, .parallel = true});
  std::cout << "fragment kernel (" << frag_len << " bp query) built in " << t.seconds()
            << " s\n";
  const QueryIndex frag_index(frag_kernel);  // one index for every window
  const Index window = frag_len;  // same-size windows of B
  const Index step = std::max<Index>(1, window / 8);
  Table profile({"window_start", "window_end", "lcs", "identity_pct"});
  Index best_start = 0;
  Index best_score = -1;
  for (Index w0 = 0; w0 + window <= static_cast<Index>(b.size()); w0 += step) {
    const Index score = frag_index.string_substring(w0, w0 + window);
    profile.row().cell(static_cast<long long>(w0)).cell(static_cast<long long>(w0 + window))
        .cell(static_cast<long long>(score))
        .cell(100.0 * static_cast<double>(score) / static_cast<double>(window), 1);
    if (score > best_score) {
      best_score = score;
      best_start = w0;
    }
  }
  profile.print(std::cout,
                "identity of A[" + std::to_string(frag_start) + ", " +
                    std::to_string(frag_start + frag_len) + ") against windows of B");
  std::cout << "\nfragment of A taken at " << frag_start << "; best-matching window of B: ["
            << best_start << ", " << best_start + window << ") with LCS " << best_score
            << "\n";

  // 4. Overlap detection via prefix-suffix scores (assembly-style use):
  // how strongly does a suffix of A continue into a prefix of B?
  std::cout << "\nsuffix(A)/prefix(B) overlap scores:\n";
  for (const Index k : {genome_length / 8, genome_length / 4, genome_length / 2}) {
    const Index s = static_cast<Index>(a.size()) - k;
    const Index score = kernel.suffix_prefix(s, std::min<Index>(k, static_cast<Index>(b.size())));
    std::cout << "  overlap " << k << " bp: LCS = " << score << " ("
              << std::setprecision(1)
              << 100.0 * static_cast<double>(score) / static_cast<double>(k) << "%)\n";
  }
  return 0;
}

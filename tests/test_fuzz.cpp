// Deterministic randomized "torture" tests: heavier cross-module sweeps
// with randomly drawn shapes, alphabets and configurations. Seeds are fixed
// so failures reproduce; each iteration draws a fresh scenario.
#include <gtest/gtest.h>

#include "align/distance.hpp"
#include "align/edit.hpp"
#include "bitlcs/bitwise_combing.hpp"
#include "braid/monge.hpp"
#include "braid/steady_ant.hpp"
#include "core/api.hpp"
#include "core/serialize.hpp"
#include "engine/protocol.hpp"
#include "lcs/dp.hpp"
#include "oracles.hpp"
#include "util/random.hpp"

#include <numeric>
#include <sstream>

namespace semilocal {
namespace {

TEST(Fuzz, SteadyAntRandomShapesAgainstOracle) {
  Rng rng(2026);
  for (int round = 0; round < 60; ++round) {
    const Index n = rng.uniform(1, 90);
    const auto p = Permutation::random(n, rng.engine()());
    const auto q = Permutation::random(n, rng.engine()());
    const auto expected = multiply_naive(p, q);
    SteadyAntOptions opts;
    opts.precalc = rng.bernoulli(0.5);
    opts.preallocate = rng.bernoulli(0.5);
    opts.parallel_depth = static_cast<int>(rng.uniform(0, 3));
    opts.precalc_cutoff = rng.uniform(1, 5);
    EXPECT_EQ(multiply(p, q, opts), expected)
        << "n=" << n << " precalc=" << opts.precalc << " pool=" << opts.preallocate
        << " depth=" << opts.parallel_depth << " cutoff=" << opts.precalc_cutoff;
  }
}

TEST(Fuzz, RandomConfigurationsAllProduceTheReferenceKernel) {
  Rng rng(777);
  const std::vector<Strategy> strategies = {
      Strategy::kAntidiag,    Strategy::kAntidiagSimd, Strategy::kLoadBalanced,
      Strategy::kRecursive,   Strategy::kHybrid,       Strategy::kHybridTiled,
  };
  for (int round = 0; round < 30; ++round) {
    const Index m = rng.uniform(1, 120);
    const Index n = rng.uniform(1, 120);
    const Symbol alphabet = static_cast<Symbol>(rng.uniform(2, 8));
    const auto a = uniform_sequence(m, alphabet, rng.engine()());
    const auto b = uniform_sequence(n, alphabet, rng.engine()());
    const auto reference = comb_rowmajor(a, b);
    SemiLocalOptions opts;
    opts.strategy = strategies[static_cast<std::size_t>(
        rng.uniform(0, static_cast<Index>(strategies.size()) - 1))];
    opts.parallel = rng.bernoulli(0.5);
    opts.depth = static_cast<int>(rng.uniform(0, 4));
    opts.allow_16bit = rng.bernoulli(0.5);
    opts.ant.precalc = rng.bernoulli(0.7);
    opts.ant.preallocate = rng.bernoulli(0.7);
    const auto kernel = semi_local_kernel(a, b, opts);
    EXPECT_EQ(kernel.permutation(), reference.permutation())
        << strategy_name(opts.strategy) << " m=" << m << " n=" << n
        << " parallel=" << opts.parallel << " depth=" << opts.depth;
  }
}

TEST(Fuzz, MinMaxAndSelectInnerLoopsAgreeOnRandomShapes) {
  Rng rng(31337);
  for (int round = 0; round < 25; ++round) {
    const Index m = rng.uniform(1, 300);
    const Index n = rng.uniform(1, 300);
    const auto a = rounded_normal_sequence(m, 0.3 + 4.0 * rng.uniform01(), rng.engine()());
    const auto b = rounded_normal_sequence(n, 0.3 + 4.0 * rng.uniform01(), rng.engine()());
    const auto select_kernel = comb_antidiag(a, b, {.minmax = false});
    const auto minmax_kernel = comb_antidiag(a, b, {.minmax = true});
    EXPECT_EQ(select_kernel.permutation(), minmax_kernel.permutation());
  }
}

TEST(Fuzz, BitCombingVariantsOnRandomDensities) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const Index m = rng.uniform(1, 500);
    const Index n = rng.uniform(1, 500);
    const double density = 0.05 + 0.9 * rng.uniform01();
    const auto a = binary_sequence(m, rng.engine()(), density);
    const auto b = binary_sequence(n, rng.engine()(), density);
    const Index expected = lcs_score_dp(a, b);
    for (const auto v : {BitVariant::kOld, BitVariant::kBlocked, BitVariant::kOptimized,
                         BitVariant::kInterleaved}) {
      EXPECT_EQ(lcs_bit_combing(a, b, v, rng.bernoulli(0.5)), expected)
          << "variant " << static_cast<int>(v) << " m=" << m << " n=" << n;
    }
    EXPECT_EQ(lcs_bit_combing_alphabet(a, b, 2, false), expected);
  }
}

TEST(Fuzz, QuadrantQueriesOnRandomKernels) {
  Rng rng(4242);
  for (int round = 0; round < 12; ++round) {
    const Index m = rng.uniform(1, 40);
    const Index n = rng.uniform(1, 40);
    const auto a = uniform_sequence(m, 4, rng.engine()());
    const auto b = uniform_sequence(n, 4, rng.engine()());
    const auto kernel = semi_local_kernel(a, b);
    const SequenceView va{a};
    const SequenceView vb{b};
    for (int q = 0; q < 20; ++q) {
      const Index j0 = rng.uniform(0, n);
      const Index j1 = rng.uniform(j0, n);
      EXPECT_EQ(kernel.string_substring(j0, j1),
                testing::lcs_oracle(va, vb.subspan(static_cast<std::size_t>(j0),
                                                   static_cast<std::size_t>(j1 - j0))));
      const Index k = rng.uniform(0, m);
      const Index l = rng.uniform(0, n);
      EXPECT_EQ(kernel.prefix_suffix(k, l),
                testing::lcs_oracle(va.subspan(0, static_cast<std::size_t>(k)),
                                    vb.subspan(static_cast<std::size_t>(l))));
    }
  }
}

TEST(Fuzz, SerializationSurvivesRandomKernels) {
  Rng rng(555);
  for (int round = 0; round < 15; ++round) {
    const Index m = rng.uniform(0, 200);
    const Index n = rng.uniform(0, 200);
    const auto a = uniform_sequence(m, 5, rng.engine()());
    const auto b = uniform_sequence(n, 5, rng.engine()());
    const auto kernel = semi_local_kernel(a, b);
    std::stringstream buffer;
    save_kernel(buffer, kernel);
    const auto loaded = load_kernel(buffer);
    EXPECT_EQ(loaded.permutation(), kernel.permutation());
    EXPECT_EQ(loaded.lcs(), kernel.lcs());
  }
}

// ---------------------------------------------------------------------------
// Streaming frame-decoder torture suite.
//
// The epoll frontend reassembles protocol frames from arbitrary partial
// reads, so the one property FrameDecoder must have is *split invariance*:
// however a byte stream is chopped into feed() calls -- one big buffer, two
// chunks cut at any byte, or one byte at a time -- the sequence of delivered
// payloads, the terminal error (if any) and the leftover buffered bytes must
// be byte-identical. These tests replay the protocol-fuzz corpus shapes
// (random payload frames, valid encoded requests, truncations, bit flips,
// hostile declared lengths) through every split.

/// Everything observable about one decode run.
struct StreamOutcome {
  std::vector<std::string> payloads;
  bool error = false;
  std::string error_what;
  std::size_t buffered = 0;  // meaningful only when !error

  bool operator==(const StreamOutcome& other) const {
    return payloads == other.payloads && error == other.error &&
           error_what == other.error_what && (error || buffered == other.buffered);
  }
};

/// Feeds `bytes` to a fresh decoder, split at the given sorted cut points.
StreamOutcome run_decoder(const std::string& bytes, const std::vector<std::size_t>& cuts) {
  FrameDecoder decoder;
  StreamOutcome out;
  const auto sink = [&out](std::string_view payload, bool /*spanned*/) {
    out.payloads.emplace_back(payload);
  };
  std::size_t pos = 0;
  try {
    for (const std::size_t cut : cuts) {
      decoder.feed(std::string_view(bytes).substr(pos, cut - pos), sink);
      pos = cut;
    }
    decoder.feed(std::string_view(bytes).substr(pos), sink);
    out.buffered = decoder.buffered_bytes();
  } catch (const ProtocolError& e) {
    out.error = true;
    out.error_what = e.what();
  }
  return out;
}

Request random_request(Rng& rng) {
  Request request;
  request.op = Op::kBatchQuery;
  request.a = uniform_sequence(rng.uniform(0, 24), 4, rng.engine()());
  request.b = uniform_sequence(rng.uniform(0, 24), 4, rng.engine()());
  const Index windows = rng.uniform(0, 6);
  for (Index w = 0; w < windows; ++w) {
    WindowQuery q;
    q.kind = static_cast<QueryKind>(rng.uniform(0, 2));
    q.x = rng.uniform(0, 16);
    q.y = rng.uniform(0, 16);
    request.windows.push_back(q);
  }
  return request;
}

TEST(Fuzz, StreamingDecoderIsSplitInvariantAtEveryByteBoundary) {
  Rng rng(0xf00d);
  for (int round = 0; round < 48; ++round) {
    // A stream of 1-4 frames: random-junk payloads and valid requests mixed,
    // then optionally truncated and/or bit-flipped -- the fuzz corpus shapes.
    std::string stream;
    const Index frames = rng.uniform(1, 4);
    for (Index f = 0; f < frames; ++f) {
      std::string payload;
      if (rng.bernoulli(0.5)) {
        const Index len = rng.uniform(0, 96);
        for (Index i = 0; i < len; ++i) {
          payload.push_back(static_cast<char>(rng.uniform(0, 255)));
        }
      } else {
        payload = encode_request(random_request(rng));
      }
      stream += frame_payload(payload);
    }
    if (!stream.empty() && rng.bernoulli(0.3)) {
      stream.resize(static_cast<std::size_t>(
          rng.uniform(0, static_cast<Index>(stream.size()) - 1)));
    }
    if (!stream.empty() && rng.bernoulli(0.3)) {
      const auto bit = static_cast<std::size_t>(
          rng.uniform(0, static_cast<Index>(stream.size()) * 8 - 1));
      stream[bit / 8] = static_cast<char>(stream[bit / 8] ^ (1 << (bit % 8)));
    }

    const StreamOutcome whole = run_decoder(stream, {});
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
      const StreamOutcome split = run_decoder(stream, {cut});
      ASSERT_EQ(split == whole, true)
          << "round " << round << " cut " << cut << " of " << stream.size()
          << ": split saw " << split.payloads.size() << " frames (error="
          << split.error << " '" << split.error_what << "'), whole saw "
          << whole.payloads.size() << " (error=" << whole.error << " '"
          << whole.error_what << "')";
    }
    std::vector<std::size_t> every_byte(stream.size());
    std::iota(every_byte.begin(), every_byte.end(), std::size_t{1});
    const StreamOutcome trickle = run_decoder(stream, every_byte);
    ASSERT_EQ(trickle == whole, true)
        << "round " << round << ": byte-at-a-time diverged from whole-buffer";
  }
}

TEST(Fuzz, StreamingDecoderAgreesWithTheBlockingStreamReader) {
  Rng rng(0xbeef);
  for (int round = 0; round < 20; ++round) {
    std::string stream;
    const Index frames = rng.uniform(1, 6);
    for (Index f = 0; f < frames; ++f) {
      stream += frame_payload(encode_request(random_request(rng)));
    }
    // Reference: the blocking read_frame loop the stdio path uses.
    std::istringstream in(stream);
    std::vector<std::string> expected;
    while (const auto payload = read_frame(in)) expected.push_back(*payload);
    // Byte-at-a-time through the incremental decoder.
    std::vector<std::size_t> every_byte(stream.size());
    std::iota(every_byte.begin(), every_byte.end(), std::size_t{1});
    const StreamOutcome trickle = run_decoder(stream, every_byte);
    ASSERT_FALSE(trickle.error);
    ASSERT_EQ(trickle.buffered, 0u);
    ASSERT_EQ(trickle.payloads, expected) << "round " << round;
    // And the payloads decode to byte-identical requests either way.
    for (const std::string& payload : trickle.payloads) {
      EXPECT_EQ(encode_request(decode_request(payload)), payload);
    }
  }
}

TEST(Fuzz, StreamingDecoderRejectsHostileLengthsWithoutBuffering) {
  const std::uint32_t hostile[] = {static_cast<std::uint32_t>(kMaxFrameBytes) + 1,
                                   std::uint32_t{1} << 27, std::uint32_t{1} << 31,
                                   0xffffffffu};
  for (const std::uint32_t length : hostile) {
    std::string header(4, '\0');
    for (int i = 0; i < 4; ++i) {
      header[static_cast<std::size_t>(i)] =
          static_cast<char>((length >> (8 * i)) & 0xff);
    }
    bool sunk = false;
    const auto sink = [&sunk](std::string_view, bool) { sunk = true; };
    // Byte at a time: the declared length must be rejected at the 4th header
    // byte, before any payload byte arrives and before any proportional
    // allocation -- the decoder may buffer at most the 4 header bytes.
    FrameDecoder trickle;
    for (std::size_t i = 0; i < 3; ++i) {
      trickle.feed(std::string_view(header).substr(i, 1), sink);
      EXPECT_LE(trickle.buffered_bytes(), 3u);
    }
    EXPECT_THROW(trickle.feed(std::string_view(header).substr(3, 1), sink),
                 ProtocolError)
        << "length " << length;
    EXPECT_LE(trickle.buffered_bytes(), 4u);
    EXPECT_FALSE(sunk);
    // Whole buffer (header + junk): rejected without touching the payload.
    FrameDecoder whole;
    EXPECT_THROW(whole.feed(header + std::string(64, 'x'), sink), ProtocolError)
        << "length " << length;
    EXPECT_FALSE(sunk);
  }
}

// ---------------------------------------------------------------------------
// Alignment-plot wire fuzz: the request's plot block and the streamed tile
// frames, under the same corpus shapes (truncation, bit flips, hostile
// spliced dimensions, arbitrary stream splits).

Request random_plot_request(Rng& rng) {
  Request request;
  request.op = Op::kAlignmentPlot;
  request.a = uniform_sequence(rng.uniform(1, 48), 4, rng.engine()());
  request.b = uniform_sequence(rng.uniform(1, 48), 4, rng.engine()());
  PlotSpec spec;
  spec.rows = rng.uniform(1, 64);
  spec.cols = rng.uniform(1, 64);
  // Mostly dense strides (the planner regime), sometimes absurd-but-legal
  // ones right up to the cap.
  spec.step = rng.bernoulli(0.2) ? rng.uniform(1, kMaxPlotStep) : rng.uniform(1, 16);
  spec.window = rng.bernoulli(0.2) ? rng.uniform(1, kMaxPlotWindow) : rng.uniform(1, 64);
  spec.row0 = rng.uniform(0, Index{1} << 20);
  spec.col0 = rng.uniform(0, Index{1} << 20);
  spec.quant = rng.bernoulli(0.5) ? 8 : 16;
  request.plot = spec;
  return request;
}

/// Decoding `payload` must either throw ProtocolError or produce a request
/// that re-encodes canonically (decode-encode is a projection).
void expect_rejected_or_canonical(const std::string& payload) {
  Request decoded;
  try {
    decoded = decode_request(payload);
  } catch (const ProtocolError&) {
    return;
  }
  EXPECT_EQ(encode_request(decoded), payload);
}

TEST(Fuzz, PlotRequestsRoundTripAndDieCleanlyUnderMutation) {
  Rng rng(0x9107);
  for (int round = 0; round < 40; ++round) {
    const Request request = random_plot_request(rng);
    const std::string payload = encode_request(request);
    // Canonical round-trip: decode then re-encode is byte-identical.
    const Request decoded = decode_request(payload);
    ASSERT_EQ(encode_request(decoded), payload) << "round " << round;
    ASSERT_TRUE(decoded.plot.has_value());
    EXPECT_EQ(decoded.plot->rows, request.plot->rows);
    EXPECT_EQ(decoded.plot->cols, request.plot->cols);
    EXPECT_EQ(decoded.plot->step, request.plot->step);
    EXPECT_EQ(decoded.plot->window, request.plot->window);
    EXPECT_EQ(decoded.plot->quant, request.plot->quant);

    // Every truncation dies at decode or re-encodes to exactly itself; a
    // short plot block must never be padded into a valid spec.
    for (std::size_t len = 0; len < payload.size(); ++len) {
      expect_rejected_or_canonical(payload.substr(0, len));
    }
    // Random bit flips: a flipped sequence byte may still decode (and then
    // must re-encode canonically); a flipped structural byte must throw.
    for (int flip = 0; flip < 32; ++flip) {
      const auto bit = static_cast<std::size_t>(
          rng.uniform(0, static_cast<Index>(payload.size()) * 8 - 1));
      std::string mutated = payload;
      mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
      expect_rejected_or_canonical(mutated);
    }
  }
}

TEST(Fuzz, PlotRequestsWithAbsurdSplicedDimensionsAllDieAtDecode) {
  Rng rng(0x9207);
  // u32 grid fields sit at the tail of the payload: row0,col0 (two i64),
  // then rows, cols, step, window, then the quant byte -- 33 bytes total,
  // so u32 field f starts 17 - 4*f bytes from the end.
  const auto splice_u32 = [](std::string payload, int field, std::uint32_t value) {
    const std::size_t off = payload.size() - 17 + static_cast<std::size_t>(field) * 4;
    for (int i = 0; i < 4; ++i) {
      payload[off + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xff);
    }
    return payload;
  };
  for (int round = 0; round < 10; ++round) {
    const std::string payload = encode_request(random_plot_request(rng));
    // field 0 = rows, 1 = cols, 2 = step, 3 = window.
    EXPECT_THROW((void)decode_request(splice_u32(payload, 0, 0)), ProtocolError);
    EXPECT_THROW((void)decode_request(splice_u32(payload, 1, 0)), ProtocolError);
    EXPECT_THROW((void)decode_request(splice_u32(payload, 2, 0)), ProtocolError);
    EXPECT_THROW((void)decode_request(splice_u32(payload, 3, 0)), ProtocolError);
    EXPECT_THROW((void)decode_request(
                     splice_u32(payload, 2, static_cast<std::uint32_t>(kMaxPlotStep) + 1)),
                 ProtocolError);
    EXPECT_THROW((void)decode_request(
                     splice_u32(payload, 3, static_cast<std::uint32_t>(kMaxPlotWindow) + 1)),
                 ProtocolError);
    EXPECT_THROW((void)decode_request(splice_u32(payload, 0, 0x7fffffffu)), ProtocolError);
    // rows * cols over kMaxPlotCells with both factors individually legal.
    EXPECT_THROW((void)decode_request(splice_u32(
                     splice_u32(payload, 0, 1u << 13), 1, 1u << 13)),
                 ProtocolError);
    // The trailing quant byte accepts exactly 8 and 16.
    std::string bad_quant = payload;
    bad_quant.back() = 7;
    EXPECT_THROW((void)decode_request(bad_quant), ProtocolError);
  }
}

TEST(Fuzz, PlotTileStreamsAreSplitInvariantAndReassemble) {
  Rng rng(0x7117);
  for (int round = 0; round < 20; ++round) {
    const Index rows = rng.uniform(1, 6);
    const Index cols = rng.uniform(1, 6);
    const std::uint8_t quant = rng.bernoulli(0.5) ? 8 : 16;
    const std::size_t cell_bytes = quant == 16 ? 2 : 1;
    // The reference grid the tiles carry, row-major random scores.
    std::vector<Index> grid(static_cast<std::size_t>(rows * cols));
    for (Index& v : grid) v = rng.uniform(0, quant == 16 ? 0xffff : 0xff);

    // Chop the grid into bands of random height, each band into random
    // column chunks -- the same tiling shapes the engine emits.
    std::string stream;
    std::vector<Response> sent;
    for (Index r0 = 0; r0 < rows;) {
      const Index band = std::min(rows - r0, rng.uniform(1, 3));
      for (Index c0 = 0; c0 < cols;) {
        const Index chunk = std::min(cols - c0, rng.uniform(1, 3));
        Response response;
        PlotTile tile;
        tile.row0 = r0;
        tile.col0 = c0;
        tile.rows = static_cast<std::uint32_t>(band);
        tile.cols = static_cast<std::uint32_t>(chunk);
        tile.quant = quant;
        tile.last = r0 + band == rows && c0 + chunk == cols;
        for (Index r = 0; r < band; ++r) {
          for (Index c = 0; c < chunk; ++c) {
            const Index v = grid[static_cast<std::size_t>((r0 + r) * cols + c0 + c)];
            tile.cells.push_back(static_cast<char>(v & 0xff));
            if (cell_bytes == 2) tile.cells.push_back(static_cast<char>(v >> 8));
          }
        }
        response.tile = std::move(tile);
        sent.push_back(response);
        stream += frame_payload(encode_response(response));
        c0 += chunk;
      }
      r0 += band;
    }

    // Split invariance of the framed stream at every byte boundary, and the
    // payloads decode to canonical, reassemblable tile frames.
    const StreamOutcome whole = run_decoder(stream, {});
    ASSERT_FALSE(whole.error);
    ASSERT_EQ(whole.payloads.size(), sent.size());
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
      const StreamOutcome split = run_decoder(stream, {cut});
      ASSERT_EQ(split == whole, true) << "round " << round << " cut " << cut;
    }
    std::vector<std::size_t> every_byte(stream.size());
    std::iota(every_byte.begin(), every_byte.end(), std::size_t{1});
    ASSERT_EQ(run_decoder(stream, every_byte) == whole, true) << "round " << round;

    PlotAssembler assembler(rows, cols, quant);
    for (std::size_t f = 0; f < whole.payloads.size(); ++f) {
      const Response decoded = decode_response(whole.payloads[f]);
      ASSERT_EQ(encode_response(decoded), whole.payloads[f]);
      ASSERT_TRUE(decoded.tile.has_value());
      EXPECT_EQ(*decoded.tile, *sent[f].tile);
      EXPECT_EQ(terminal_response_frame(decoded), f + 1 == whole.payloads.size());
      assembler.feed(decoded);
    }
    ASSERT_TRUE(assembler.complete());
    for (Index u = 0; u < rows; ++u) {
      for (Index v = 0; v < cols; ++v) {
        EXPECT_EQ(assembler.cell(u, v), grid[static_cast<std::size_t>(u * cols + v)]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Upsert wire fuzz: Op::kUpsert reuses the base request layout (`a` carries
// raw document-id bytes, `b` the document body) with no extra payload block,
// so the same corpus shapes apply -- truncation at every prefix, bit flips,
// hostile spliced declared lengths, and split-invariant streaming decode.

Request random_upsert_request(Rng& rng) {
  Request request;
  request.op = Op::kUpsert;
  // Id-like bytes (what the CLI sends), though the wire layer must treat the
  // field as opaque -- id validation is the corpus manager's job.
  static constexpr char kIdChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
  const Index id_len = rng.uniform(1, 32);
  for (Index i = 0; i < id_len; ++i) {
    request.a.push_back(static_cast<Symbol>(
        kIdChars[static_cast<std::size_t>(rng.uniform(0, 65))]));
  }
  request.b = uniform_sequence(rng.uniform(0, 200), 4, rng.engine()());
  return request;
}

TEST(Fuzz, UpsertRequestsRoundTripAndDieCleanlyUnderMutation) {
  Rng rng(0x5e17);
  for (int round = 0; round < 40; ++round) {
    const Request request = random_upsert_request(rng);
    const std::string payload = encode_request(request);
    // Canonical round-trip: decode then re-encode is byte-identical, and the
    // id bytes come back untouched (no packing, no normalisation).
    const Request decoded = decode_request(payload);
    ASSERT_EQ(encode_request(decoded), payload) << "round " << round;
    EXPECT_EQ(decoded.op, Op::kUpsert);
    EXPECT_EQ(decoded.a, request.a);
    EXPECT_EQ(decoded.b, request.b);
    EXPECT_TRUE(decoded.windows.empty());
    EXPECT_FALSE(decoded.plot.has_value());

    // Every truncation dies at decode or re-encodes to exactly itself; a
    // short document body must never be silently padded or clipped.
    for (std::size_t len = 0; len < payload.size(); ++len) {
      expect_rejected_or_canonical(payload.substr(0, len));
    }
    // Random bit flips: a flipped id or body byte still decodes (and then
    // must re-encode canonically); a flipped structural byte must throw.
    for (int flip = 0; flip < 32; ++flip) {
      const auto bit = static_cast<std::size_t>(
          rng.uniform(0, static_cast<Index>(payload.size()) * 8 - 1));
      std::string mutated = payload;
      mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
      expect_rejected_or_canonical(mutated);
    }
  }
}

TEST(Fuzz, UpsertRequestsWithHostileSplicedLengthsAllDieAtDecode) {
  Rng rng(0x5e27);
  // The declared sequence lengths sit at fixed offsets: op(1) + x(8) + y(8),
  // so la is bytes [17,21) and lb bytes [21,25).
  const auto splice_u32 = [](std::string payload, std::size_t off, std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      payload[off + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xff);
    }
    return payload;
  };
  for (int round = 0; round < 10; ++round) {
    const Request request = random_upsert_request(rng);
    const std::string payload = encode_request(request);
    // Declared lengths far past the payload end must die at decode without
    // any proportional allocation (the reader bounds-checks before copying).
    for (const std::uint32_t hostile :
         {std::uint32_t{0xffffffffu}, std::uint32_t{1} << 31,
          static_cast<std::uint32_t>(kMaxFrameBytes),
          static_cast<std::uint32_t>(payload.size())}) {
      EXPECT_THROW((void)decode_request(splice_u32(payload, 17, hostile)),
                   ProtocolError)
          << "la=" << hostile;
      EXPECT_THROW((void)decode_request(splice_u32(payload, 21, hostile)),
                   ProtocolError)
          << "lb=" << hostile;
    }
    // Off-by-one length lies shift every later field: the decoder must
    // either reject or happen to parse something that re-encodes to exactly
    // the mutated bytes -- never a half-shifted hybrid.
    const auto la = static_cast<std::uint32_t>(request.a.size());
    const auto lb = static_cast<std::uint32_t>(request.b.size());
    expect_rejected_or_canonical(splice_u32(payload, 17, la + 1));
    expect_rejected_or_canonical(splice_u32(payload, 21, lb + 1));
    if (la > 0) expect_rejected_or_canonical(splice_u32(payload, 17, la - 1));
    if (lb > 0) expect_rejected_or_canonical(splice_u32(payload, 21, lb - 1));
  }
}

TEST(Fuzz, UpsertFrameStreamsAreSplitInvariantAtEveryByteBoundary) {
  Rng rng(0x5e37);
  for (int round = 0; round < 24; ++round) {
    // A stream of framed upsert requests, optionally truncated or
    // bit-flipped -- the shapes a reactor sees from a flaky ingest client.
    std::string stream;
    const Index frames = rng.uniform(1, 4);
    for (Index f = 0; f < frames; ++f) {
      stream += frame_payload(encode_request(random_upsert_request(rng)));
    }
    const bool clean = !rng.bernoulli(0.4);
    if (!clean && rng.bernoulli(0.5)) {
      stream.resize(static_cast<std::size_t>(
          rng.uniform(0, static_cast<Index>(stream.size()) - 1)));
    } else if (!clean && !stream.empty()) {
      const auto bit = static_cast<std::size_t>(
          rng.uniform(0, static_cast<Index>(stream.size()) * 8 - 1));
      stream[bit / 8] = static_cast<char>(stream[bit / 8] ^ (1 << (bit % 8)));
    }

    const StreamOutcome whole = run_decoder(stream, {});
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
      const StreamOutcome split = run_decoder(stream, {cut});
      ASSERT_EQ(split == whole, true)
          << "round " << round << " cut " << cut << " of " << stream.size();
    }
    std::vector<std::size_t> every_byte(stream.size());
    std::iota(every_byte.begin(), every_byte.end(), std::size_t{1});
    ASSERT_EQ(run_decoder(stream, every_byte) == whole, true) << "round " << round;
    // Clean streams must deliver every frame, each decoding canonically.
    if (clean) {
      ASSERT_FALSE(whole.error);
      ASSERT_EQ(whole.payloads.size(), static_cast<std::size_t>(frames));
      for (const std::string& payload : whole.payloads) {
        const Request decoded = decode_request(payload);
        EXPECT_EQ(decoded.op, Op::kUpsert);
        EXPECT_EQ(encode_request(decoded), payload);
      }
    }
  }
}

TEST(Fuzz, EditDistanceReductionOnRandomShapes) {
  Rng rng(808);
  for (int round = 0; round < 20; ++round) {
    const Index m = rng.uniform(0, 80);
    const Index n = rng.uniform(0, 80);
    const Symbol alphabet = static_cast<Symbol>(rng.uniform(2, 6));
    const auto a = uniform_sequence(m, alphabet, rng.engine()());
    const auto b = uniform_sequence(n, alphabet, rng.engine()());
    EXPECT_EQ(levenshtein_via_lcs(a, b), levenshtein(a, b)) << "m=" << m << " n=" << n;
  }
}

}  // namespace
}  // namespace semilocal

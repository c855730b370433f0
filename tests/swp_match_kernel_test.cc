#include "swp/match_kernel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "crypto/prf.h"
#include "crypto/sha256_compress.h"
#include "swp/scheme.h"
#include "swp/search.h"

namespace dbph {
namespace swp {
namespace {

/// Deterministic xorshift stream so failures reproduce.
class TestRng {
 public:
  explicit TestRng(uint64_t seed) : state_(seed | 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  Bytes NextBytes(size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<uint8_t>(Next());
    return out;
  }

 private:
  uint64_t state_;
};

Trapdoor MakeTestTrapdoor(TestRng* rng, size_t word_length) {
  Trapdoor trapdoor;
  trapdoor.target = rng->NextBytes(word_length);
  trapdoor.key = rng->NextBytes(32);
  return trapdoor;
}

/// Builds an arena + refs from a word list, returning both.
struct ArenaFixture {
  Bytes arena;
  std::vector<WordRef> refs;

  void Add(const Bytes& word) {
    refs.push_back({static_cast<uint32_t>(arena.size()),
                    static_cast<uint32_t>(word.size())});
    arena.insert(arena.end(), word.begin(), word.end());
  }
};

/// The ground truth: MatchCipherWord on a copied-out word.
std::vector<uint8_t> ScalarMatches(const SwpParams& params,
                                   const Trapdoor& trapdoor,
                                   const ArenaFixture& fixture) {
  std::vector<uint8_t> out(fixture.refs.size(), 0);
  for (size_t i = 0; i < fixture.refs.size(); ++i) {
    const WordRef& ref = fixture.refs[i];
    Bytes word(fixture.arena.begin() + ref.offset,
               fixture.arena.begin() + ref.offset + ref.length);
    out[i] = MatchCipherWord(params, trapdoor, word) ? 1 : 0;
  }
  return out;
}

// Exhaustive over a tiny word space: word_length 2, check_length 1 —
// every possible 2-byte ciphertext is checked both ways. With a 1-byte
// check part roughly 1/256 of random words false-positive, so this
// sweeps matching and non-matching words through both paths.
TEST(MatchKernelTest, ExhaustiveSmallWordSpace) {
  SwpParams params;
  params.word_length = 2;
  params.check_length = 1;
  TestRng rng(0xdecafbad);
  Trapdoor trapdoor = MakeTestTrapdoor(&rng, 2);

  ArenaFixture fixture;
  for (int hi = 0; hi < 256; ++hi) {
    for (int lo = 0; lo < 256; ++lo) {
      fixture.Add({static_cast<uint8_t>(hi), static_cast<uint8_t>(lo)});
    }
  }
  std::vector<uint8_t> expected = ScalarMatches(params, trapdoor, fixture);

  MatchContext context(params, trapdoor);
  std::vector<uint8_t> got(fixture.refs.size(), 0xff);
  size_t matched = context.MatchMany(fixture.arena, fixture.refs, got.data());
  EXPECT_EQ(got, expected);
  size_t expected_matched = 0;
  for (uint8_t m : expected) expected_matched += m;
  EXPECT_EQ(matched, expected_matched);
  // Every word has the target's length, so every word cost one eval.
  EXPECT_EQ(context.match_evals(), 256u * 256u);
  // The trapdoor's own word must match itself... only if the target IS
  // the encryption; here targets are random so we just require at least
  // the scalar agreement above. Single-word path agrees too:
  for (size_t i = 0; i < 512; ++i) {
    const WordRef& ref = fixture.refs[i];
    EXPECT_EQ(context.Matches(fixture.arena.data() + ref.offset, ref.length),
              expected[i] == 1);
  }
}

// Seeded random sweep across realistic parameter shapes, including the
// default (16, 4), an odd word length, a check part at the digest limit
// and one beyond it (counter-mode expansion path).
TEST(MatchKernelTest, SeededRandomEquivalence) {
  const struct {
    size_t word_length;
    size_t check_length;
  } shapes[] = {{16, 4}, {7, 2}, {33, 32}, {40, 36}, {5, 1}};
  TestRng rng(0x5eed5eed);
  for (const auto& shape : shapes) {
    SwpParams params;
    params.word_length = shape.word_length;
    params.check_length = shape.check_length;
    Trapdoor trapdoor = MakeTestTrapdoor(&rng, shape.word_length);

    ArenaFixture fixture;
    for (int i = 0; i < 300; ++i) {
      fixture.Add(rng.NextBytes(shape.word_length));
    }
    // Plant guaranteed matches: words that XOR to a consistent
    // left/check pair. Build them via the match equation itself:
    // cipher = target XOR (s | F_k(s)).
    crypto::Prf check(trapdoor.key);
    for (int i = 0; i < 5; ++i) {
      Bytes s = rng.NextBytes(shape.word_length - shape.check_length);
      Bytes f = check.Eval(s, shape.check_length);
      Bytes pad = s;
      pad.insert(pad.end(), f.begin(), f.end());
      fixture.Add(Xor(trapdoor.target, pad));
    }

    std::vector<uint8_t> expected = ScalarMatches(params, trapdoor, fixture);
    size_t expected_matched = 0;
    for (uint8_t m : expected) expected_matched += m;
    ASSERT_GE(expected_matched, 5u);  // the planted matches

    MatchContext context(params, trapdoor);
    std::vector<uint8_t> got(fixture.refs.size(), 0xff);
    size_t matched =
        context.MatchMany(fixture.arena, fixture.refs, got.data());
    EXPECT_EQ(got, expected) << "word_length " << shape.word_length
                             << " check_length " << shape.check_length;
    EXPECT_EQ(matched, expected_matched);
  }
}

// Candidate counts straddling the batch width: one short of a pass, a
// whole pass, one over, and two passes short or over by one. Words of
// other lengths are interleaved, so batch lanes map back to scattered
// ref indices, and matches sit in the first and last lane of each pass
// and in the final candidate.
TEST(MatchKernelTest, CandidateCountsAroundBatchWidth) {
  constexpr size_t kLanes = crypto::kSha256BatchLanes;
  SwpParams params;  // 16 / 4
  TestRng rng(0x1616abcd);
  Trapdoor trapdoor = MakeTestTrapdoor(&rng, 16);
  crypto::Prf check(trapdoor.key);
  const auto planted_match = [&]() {
    Bytes s = rng.NextBytes(12);
    Bytes f = check.Eval(s, 4);
    Bytes pad = s;
    pad.insert(pad.end(), f.begin(), f.end());
    return Xor(trapdoor.target, pad);
  };

  for (size_t count :
       {kLanes - 1, kLanes, kLanes + 1, 2 * kLanes - 1, 2 * kLanes + 1}) {
    ArenaFixture fixture;
    size_t planted = 0;
    for (size_t c = 0; c < count; ++c) {
      fixture.Add(rng.NextBytes(c % 3 == 0 ? 8 : 20));  // never a candidate
      const size_t lane = c % kLanes;
      if (lane == 0 || lane == kLanes - 1 || c + 1 == count) {
        fixture.Add(planted_match());
        ++planted;
      } else {
        fixture.Add(rng.NextBytes(16));
      }
    }
    std::vector<uint8_t> expected = ScalarMatches(params, trapdoor, fixture);
    size_t expected_matched = 0;
    for (uint8_t m : expected) expected_matched += m;
    ASSERT_GE(expected_matched, planted);

    MatchContext context(params, trapdoor);
    std::vector<uint8_t> got(fixture.refs.size(), 0xff);
    const size_t matched =
        context.MatchMany(fixture.arena, fixture.refs, got.data());
    EXPECT_EQ(got, expected) << count << " candidates";
    EXPECT_EQ(matched, expected_matched) << count << " candidates";
    EXPECT_EQ(context.match_evals(), count);
  }
}

// Words whose length differs from the trapdoor target never match and
// never cost a PRF eval — on either path.
TEST(MatchKernelTest, MismatchedLengthEdgeCases) {
  SwpParams params;  // 16 / 4
  TestRng rng(0xabcdef12);
  Trapdoor trapdoor = MakeTestTrapdoor(&rng, 16);

  ArenaFixture fixture;
  fixture.Add(rng.NextBytes(15));  // one short
  fixture.Add(rng.NextBytes(17));  // one long
  fixture.Add(Bytes());            // empty word
  fixture.Add(rng.NextBytes(16));  // the only candidate
  fixture.Add(rng.NextBytes(4));   // check-length-sized
  std::vector<uint8_t> expected = ScalarMatches(params, trapdoor, fixture);

  MatchContext context(params, trapdoor);
  std::vector<uint8_t> got(fixture.refs.size(), 0xff);
  context.MatchMany(fixture.arena, fixture.refs, got.data());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(context.match_evals(), 1u);  // only the 16-byte word

  // A target no longer than the check part can never match (the scalar
  // path's same guard).
  SwpParams degenerate;
  degenerate.word_length = 4;
  degenerate.check_length = 4;
  Trapdoor short_trapdoor = MakeTestTrapdoor(&rng, 4);
  MatchContext degenerate_context(degenerate, short_trapdoor);
  ArenaFixture short_fixture;
  short_fixture.Add(rng.NextBytes(4));
  std::vector<uint8_t> short_got(1, 0xff);
  EXPECT_EQ(degenerate_context.MatchMany(short_fixture.arena,
                                         short_fixture.refs, short_got.data()),
            0u);
  EXPECT_EQ(short_got[0], 0);
  EXPECT_EQ(degenerate_context.match_evals(), 0u);
}

// Hostile refs — offsets past the arena, lengths overflowing uint32
// arithmetic, refs into an empty arena — are non-matches, not reads.
TEST(MatchKernelTest, HostileArenaOffsets) {
  SwpParams params;  // 16 / 4
  TestRng rng(0x600dcafe);
  Trapdoor trapdoor = MakeTestTrapdoor(&rng, 16);
  MatchContext context(params, trapdoor);

  Bytes arena = rng.NextBytes(64);
  std::vector<WordRef> refs = {
      {0, 16},                    // in bounds: evaluated
      {48, 16},                   // exactly at the end: evaluated
      {49, 16},                   // one past: never read
      {~uint32_t{0}, 16},         // offset near uint32 max: overflow-safe
      {~uint32_t{0} - 15, 16},    // offset+length == 2^32: out of bounds
      {64, 16},                   // starts at arena.size()
      {0, ~uint32_t{0}},          // absurd length (also != target length)
  };
  std::vector<uint8_t> got(refs.size(), 0xff);
  context.MatchMany(arena, refs, got.data());
  for (size_t i = 2; i < refs.size(); ++i) {
    EXPECT_EQ(got[i], 0) << "hostile ref " << i << " must not match";
  }
  EXPECT_EQ(context.match_evals(), 2u);  // only the two in-bounds refs

  std::vector<uint8_t> empty_got(refs.size(), 0xff);
  context.MatchMany(std::span<const uint8_t>(), refs, empty_got.data());
  for (uint8_t m : empty_got) EXPECT_EQ(m, 0);
}

// CollectWordRefs mirrors EncryptedDocument::ReadFrom: identical word
// boundaries on well-formed input, failure on exactly the inputs
// ReadFrom rejects.
TEST(MatchKernelTest, CollectWordRefsMirrorsParse) {
  TestRng rng(0x12345678);
  EncryptedDocument doc;
  doc.nonce = rng.NextBytes(16);
  for (int i = 0; i < 5; ++i) doc.words.push_back(rng.NextBytes(16));
  doc.words.push_back(Bytes());  // empty word slot survives both paths
  doc.tag = rng.NextBytes(32);
  Bytes serialized;
  doc.AppendTo(&serialized);

  std::vector<WordRef> refs;
  auto count = CollectWordRefs(serialized, &refs);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, doc.words.size());
  ASSERT_EQ(refs.size(), doc.words.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_LE(static_cast<size_t>(refs[i].offset) + refs[i].length,
              serialized.size());
    EXPECT_EQ(Bytes(serialized.begin() + refs[i].offset,
                    serialized.begin() + refs[i].offset + refs[i].length),
              doc.words[i])
        << "word " << i;
  }

  // Truncations at every byte must fail in both (ReadFrom tolerates no
  // prefix of a valid document shorter than itself, except none).
  for (size_t cut = 0; cut < serialized.size(); ++cut) {
    Bytes truncated(serialized.begin(),
                    serialized.begin() + static_cast<long>(cut));
    std::vector<WordRef> cut_refs;
    ByteReader reader(truncated);
    const bool parse_ok = EncryptedDocument::ReadFrom(&reader).ok();
    const bool collect_ok = CollectWordRefs(truncated, &cut_refs).ok();
    EXPECT_EQ(parse_ok, collect_ok) << "cut at " << cut;
  }
}

// SearchDocument over a parsed document and MatchMany over its
// serialized bytes must select the same word slots.
TEST(MatchKernelTest, MatchManyAgreesWithSearchDocument) {
  TestRng rng(0x0badf00d);
  SwpParams params;  // 16 / 4
  Trapdoor trapdoor = MakeTestTrapdoor(&rng, 16);

  for (int round = 0; round < 50; ++round) {
    EncryptedDocument doc;
    doc.nonce = rng.NextBytes(16);
    const size_t nwords = 1 + (rng.Next() % 6);
    for (size_t i = 0; i < nwords; ++i) doc.words.push_back(rng.NextBytes(16));
    // Plant a match in some rounds.
    if (round % 3 == 0) {
      crypto::Prf check(trapdoor.key);
      Bytes s = rng.NextBytes(12);
      Bytes f = check.Eval(s, 4);
      Bytes pad = s;
      pad.insert(pad.end(), f.begin(), f.end());
      doc.words[rng.Next() % nwords] = Xor(trapdoor.target, pad);
    }
    Bytes serialized;
    doc.AppendTo(&serialized);

    std::vector<size_t> scalar = SearchDocument(params, trapdoor, doc);

    std::vector<WordRef> refs;
    ASSERT_TRUE(CollectWordRefs(serialized, &refs).ok());
    MatchContext context(params, trapdoor);
    std::vector<uint8_t> got(refs.size(), 0xff);
    context.MatchMany(serialized, refs, got.data());
    std::vector<size_t> kernel;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i] != 0) kernel.push_back(i);
    }
    EXPECT_EQ(kernel, scalar) << "round " << round;
  }
}

}  // namespace
}  // namespace swp
}  // namespace dbph

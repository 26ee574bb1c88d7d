#include "vm/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "apps/dmine/candidate_count.hpp"
#include "apps/pgrep/bitap.hpp"
#include "io/file_store.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"
#include "vm/assembler.hpp"
#include "vm/runtime.hpp"

namespace clio::vm {
namespace {

// Instructions executed by one kernel call on the fixtures below.  They
// pin the instruction stream: a change to it, or to how the interpreter
// counts it, moves these.
constexpr std::uint64_t kBitapFixtureInsns = 400091;
constexpr std::uint64_t kDmineFixtureInsns = 786175;
// Dispatches the same calls make on the fused tier (the default
// compile_threshold of 1 tiers up on the first call): 0.36x and 0.22x of
// the instruction counts.  A change to the superinstruction set, the
// borrow rule or what the kind pass proves moves these.
constexpr std::uint64_t kBitapFixtureDispatches = 144056;
constexpr std::uint64_t kDmineFixtureDispatches = 170521;

class KernelsTest : public ::testing::Test {
 protected:
  KernelsTest()
      : fs_(std::make_unique<io::RealFileStore>(dir_.path()),
            io::ManagedFsOptions{}) {}

  ExecutionEngine make_engine(const char* source) {
    EngineOptions options;
    options.jit.compile_ns_per_byte = 0;
    return ExecutionEngine(assemble(source), options, &fs_);
  }

  void write_file(const std::string& name, std::span<const std::byte> data) {
    auto file = fs_.open(name, io::OpenMode::kTruncate);
    file.write(data);
    file.close();
  }

  util::TempDir dir_;
  io::ManagedFileSystem fs_;
};

TEST_F(KernelsTest, SpinSumMatchesClosedForm) {
  // The sum is n(n-1)/2.  The instruction count is 4 prologue + 13 per
  // iteration + 4 for the failing loop test + 2 to return: 13n + 10, so
  // any change to the instruction stream or its accounting moves it.  The
  // fused tier dispatches 5 per iteration (loop test, ldloc, add, stloc,
  // increment-and-branch) and 5 outside the loop: 5n + 5.
  for (const std::int64_t n : {0, 1, 1000}) {
    auto engine = make_engine(kernels::kSpinSource);
    EXPECT_EQ(engine.call("spin_sum", {Value::from_int(n)}).as_int(),
              n * (n - 1) / 2);
    EXPECT_EQ(engine.instructions_executed(),
              static_cast<std::uint64_t>(13 * n + 10))
        << "n = " << n;
    EXPECT_EQ(engine.dispatches_executed(),
              static_cast<std::uint64_t>(5 * n + 5))
        << "n = " << n;
  }
}

/// Arguments of the kinds clio_bench's vm_scan passes each kernel (name,
/// masks array or candidates buffer, then two ints): the fused stream is
/// specialised on them.
std::vector<Value> scan_args(const Module& module) {
  const bool bitap = module.method(0).name == "bitap_file";
  return {kernels::make_string("data"),
          bitap ? kernels::bitap_masks("x") : kernels::make_buffer({}),
          Value::from_int(1), Value::from_int(1)};
}

TEST(KernelsFusedTier, EveryElementLoadBorrowsItsContainer) {
  // Under the borrow rule no ldelem of either kernel takes its container
  // from the stack: each became a borrowed form that reads the slot.
  const Op borrowed[] = {Op::kLdElemS,       Op::kLdElemSS,
                         Op::kLdElemSIS,     Op::kBrEqElemSIS,
                         Op::kBrNeElemSIS,   Op::kBrLtElemSIS,
                         Op::kBrLeElemSIS,   Op::kBrGtElemSIS,
                         Op::kBrGeElemSIS};
  for (const char* source : {kernels::kBitapSource, kernels::kDmineSource}) {
    const Module module = assemble(source);
    const std::vector<Value> args = scan_args(module);
    Jit plain(module, JitOptions{.compile_ns_per_byte = 0,
                                 .compile_threshold = UINT64_MAX});
    Jit fused(module, JitOptions{.compile_ns_per_byte = 0});
    std::size_t ldelems = 0;
    for (const DecodedInsn& insn : plain.get(0, args).code) {
      ldelems += insn.op == Op::kLdElem ? 1 : 0;
    }
    std::size_t borrows = 0;
    for (const DecodedInsn& insn : fused.get(0, args).code) {
      EXPECT_NE(insn.op, Op::kLdElem) << module.method(0).name;
      borrows += std::count(std::begin(borrowed), std::end(borrowed), insn.op);
    }
    EXPECT_GT(ldelems, 0u);
    EXPECT_EQ(borrows, ldelems) << module.method(0).name;
  }
}

TEST(KernelsFusedTier, DmineScanLoopIsThreeInstructionsPerIteration) {
  // The scan loop runs about 85% of dmine's instructions: the loop test,
  // the compare of buf[rec + 1 + j] with the item and its branch, and the
  // increment that branches back to the loop test.
  const Module module = assemble(kernels::kDmineSource);
  Jit jit(module, JitOptions{.compile_ns_per_byte = 0});
  const std::vector<DecodedInsn>& code = jit.get(0, scan_args(module)).code;
  const auto compare =
      std::find_if(code.begin(), code.end(),
                   [](const auto& i) { return i.op == Op::kBrNeElemSIS; });
  ASSERT_NE(compare, code.end());
  const auto at = static_cast<std::size_t>(compare - code.begin());
  ASSERT_GT(at, 0u);
  EXPECT_EQ(code[at - 1].op, Op::kBrGeSS);  // j >= n: leave the loop
  // item != buf[rec + 1 + j]: next j
  ASSERT_LT(code[at].target, code.size());
  const DecodedInsn& next = code[code[at].target];
  EXPECT_EQ(next.op, Op::kIncSBr);  // ++j, back to the loop test
  EXPECT_EQ(next.target, at - 1);
}

TEST_F(KernelsTest, BitapKernelMatchesNativeScanner) {
  // Pseudo-random text with the pattern planted at known spots, including
  // one straddling the 4096-byte chunk boundary.
  const std::string pattern = "needle";
  util::Rng rng(42);
  std::string text(16000, 'x');
  for (auto& ch : text) {
    ch = static_cast<char>('a' + rng.uniform_u64(4));
  }
  const std::size_t plant[] = {10, 4093, 8000, 15990};
  for (const std::size_t at : plant) {
    text.replace(at, pattern.size(), pattern);
  }
  write_file("corpus.txt",
             std::span(reinterpret_cast<const std::byte*>(text.data()),
                       text.size()));

  // Native side: whole-text oracle AND the chunked stream scanner.
  apps::pgrep::Bitap matcher(pattern, 0);
  const auto whole = matcher.find(text);
  apps::pgrep::BitapStreamScanner scanner(matcher);
  auto native_file = fs_.open("corpus.txt", io::OpenMode::kRead);
  std::vector<std::byte> chunk(4096);
  while (true) {
    const std::size_t got = native_file.read(chunk);
    if (got == 0) break;
    scanner.feed(std::string_view(
        reinterpret_cast<const char*>(chunk.data()), got));
  }
  native_file.close();
  EXPECT_EQ(scanner.matches(), whole.size());
  EXPECT_GE(whole.size(), 4u);  // every planted copy found

  // Managed side: the VM kernel over the same file and chunk size.
  auto engine = make_engine(kernels::kBitapSource);
  const auto vm_count =
      engine
          .call("bitap_file",
                {kernels::make_string("corpus.txt"),
                 kernels::bitap_masks(pattern), kernels::bitap_accept(pattern),
                 Value::from_int(4096)})
          .as_int();
  EXPECT_EQ(static_cast<std::uint64_t>(vm_count), scanner.matches());
  EXPECT_EQ(engine.instructions_executed(), kBitapFixtureInsns);
  EXPECT_EQ(engine.dispatches_executed(), kBitapFixtureDispatches);
}

TEST_F(KernelsTest, DmineKernelMatchesNativeCounter) {
  using apps::dmine::kFixedRecordBytes;
  // 600 random baskets of 3..10 items over 32 item ids; 8 candidate pairs.
  util::Rng rng(7);
  std::vector<std::vector<std::uint8_t>> baskets;
  for (int b = 0; b < 600; ++b) {
    std::vector<std::uint8_t> basket;
    const auto n = 3 + rng.uniform_u64(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto item = static_cast<std::uint8_t>(rng.uniform_u64(32));
      bool dup = false;
      for (const auto existing : basket) dup = dup || existing == item;
      if (!dup) basket.push_back(item);
    }
    baskets.push_back(std::move(basket));
  }
  std::vector<std::vector<std::uint8_t>> candidates;
  for (std::uint8_t c = 0; c < 8; ++c) {
    candidates.push_back({c, static_cast<std::uint8_t>(c + 9)});
  }
  const std::size_t k = 2;

  const auto records = apps::dmine::encode_fixed_records(baskets);
  const auto packed = apps::dmine::pack_candidates(candidates, k);
  write_file("baskets.dat", records);

  // Native side: stream the file in 1024-byte chunks (multiple of 16).
  std::uint64_t native_total = 0;
  auto file = fs_.open("baskets.dat", io::OpenMode::kRead);
  std::vector<std::byte> chunk(1024);
  while (true) {
    const std::size_t got = file.read(chunk);
    if (got == 0) break;
    ASSERT_EQ(got % kFixedRecordBytes, 0u);
    native_total += apps::dmine::count_support(
        std::span(chunk.data(), got), packed, k);
  }
  file.close();
  // In-memory oracle agrees with the streamed count.
  EXPECT_EQ(native_total, apps::dmine::count_support(records, packed, k));
  EXPECT_GT(native_total, 0u);

  // Managed side: same file, same candidates, same chunking.
  auto engine = make_engine(kernels::kDmineSource);
  const auto vm_total =
      engine
          .call("dmine_count",
                {kernels::make_string("baskets.dat"),
                 kernels::make_buffer(packed),
                 Value::from_int(static_cast<std::int64_t>(k)),
                 Value::from_int(1024)})
          .as_int();
  EXPECT_EQ(static_cast<std::uint64_t>(vm_total), native_total);
  EXPECT_EQ(engine.instructions_executed(), kDmineFixtureInsns);
  EXPECT_EQ(engine.dispatches_executed(), kDmineFixtureDispatches);
}

}  // namespace
}  // namespace clio::vm

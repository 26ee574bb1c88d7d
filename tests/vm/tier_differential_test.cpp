// Tier 0 vs tier 1: every program runs once on the plain decode
// (compile_threshold = UINT64_MAX, the method never tiers up) and once on
// the fused stream (compile_threshold = 1), and the two runs must agree on
// the result, the trap text and the source-instruction count.  Programs:
// the paper kernels, a seeded generator of small verified programs that
// reaches every superinstruction, and hand cases for the fusion rules
// (branch targets inside a run, a trap at every superinstruction's
// checking instruction, starg/stloc mixes, the borrow rule's limits and
// the lifetimes of borrowed containers).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/dmine/candidate_count.hpp"
#include "io/file_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"
#include "vm/assembler.hpp"
#include "vm/kernels.hpp"
#include "vm/runtime.hpp"

namespace clio::vm {
namespace {

constexpr std::uint64_t kNeverTierUp =
    std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// What one call did, in a form two tiers can be compared on.
struct Outcome {
  std::string result;  ///< "int 5", "float 1.5", "object" or "trap <what>"
  std::uint64_t insns = 0;
  std::uint64_t dispatches = 0;
};

Outcome call(ExecutionEngine& engine, std::string_view method,
             std::vector<Value> args) {
  const std::uint64_t insns = engine.instructions_executed();
  const std::uint64_t dispatches = engine.dispatches_executed();
  Outcome out;
  try {
    const Value v = engine.call(method, std::move(args));
    switch (v.kind()) {
      case Value::Kind::kInt:
        out.result = "int " + std::to_string(v.as_int());
        break;
      case Value::Kind::kFloat:
        out.result = "float " + std::to_string(v.as_float());
        break;
      case Value::Kind::kObj:
        out.result = "object";
        break;
    }
  } catch (const util::ExecutionError& e) {
    out.result = std::string("trap ") + e.what();
  }
  out.insns = engine.instructions_executed() - insns;
  out.dispatches = engine.dispatches_executed() - dispatches;
  return out;
}

EngineOptions tier_options(std::uint64_t threshold) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  options.jit.compile_threshold = threshold;
  return options;
}

/// One engine per tier over the same module and file system.
struct TierPair {
  TierPair(const Module& module, io::ManagedFileSystem* fs = nullptr)
      : plain(module, tier_options(kNeverTierUp), fs),
        fused(module, tier_options(1), fs) {}

  /// Runs `method` on both tiers; returns the fused run's outcome.
  Outcome expect_same(std::string_view method, const std::vector<Value>& args,
                      const std::string& context) {
    const Outcome a = call(plain, method, args);
    const Outcome b = call(fused, method, args);
    EXPECT_EQ(a.result, b.result) << context;
    EXPECT_EQ(a.insns, b.insns) << context;
    EXPECT_EQ(a.dispatches, a.insns) << context << " (plain decode)";
    EXPECT_LE(b.dispatches, b.insns) << context;
    EXPECT_EQ(plain.jit_stats().compilations, 0u) << context;
    return b;
  }

  ExecutionEngine plain;
  ExecutionEngine fused;
};

/// The ops of method `name`'s fused stream, specialised on the kinds of
/// `args`.
std::multiset<Op> fused_ops(const Module& module, std::string_view name,
                            const std::vector<Value>& args) {
  Jit jit(module, JitOptions{.compile_ns_per_byte = 0});
  std::multiset<Op> ops;
  for (const DecodedInsn& insn :
       jit.get(module.find_method(name), args).code) {
    ops.insert(insn.op);
  }
  return ops;
}

/// `n` int arguments.
std::vector<Value> ints(std::size_t n) {
  return std::vector<Value>(n, Value::from_int(1));
}

// ---- seeded generator ----

/// The first of the generator's 400 program seeds: 1, or 1 + 400 x
/// CLIO_STRESS_SEED when that is set, so each stress seed runs its own
/// window of programs.
std::uint64_t first_program_seed() {
  const char* env = std::getenv("CLIO_STRESS_SEED");
  return env == nullptr ? 1 : 1 + 400 * std::strtoull(env, nullptr, 10);
}

// Frame of every generated method `gen 3 8`: args 0-2 and locals 0-3 are
// the scalars statements read and write; local 4 is the loop counter,
// local 6 an index temporary in 0..15, and locals 5 and 7 containers of
// 16 elements (at first a buffer and an array; a statement may make them
// one container).
const char* const kScalars[] = {"ldarg 0", "ldarg 1", "ldarg 2", "ldloc 0",
                                "ldloc 1", "ldloc 2", "ldloc 3"};
const char* const kBinops[] = {"add", "sub", "mul", "and",
                               "or",  "xor", "shl", "shr"};
const char* const kRelations[] = {"cmpeq", "cmpne", "cmplt",
                                  "cmple", "cmpgt", "cmpge"};

class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string method() {
    out_.str("");
    out_ << ".method gen 3 8\n";
    for (int i = 0; i < 4; ++i) {
      out_ << "ldc " << value() << "\nstloc " << i << "\n";
    }
    out_ << "ldc 16\nsyscall buf_new\nstloc 5\nldc 16\nnewarr\nstloc 7\n"
         << "ldc 0\nstloc 4\nloop:\n"
         << "ldc " << 1 + rng_.uniform_u64(5) << "\nldloc 4\ncmple\n"
         << "brtrue done\n";
    const auto statements = 4 + rng_.uniform_u64(10);
    for (std::uint64_t i = 0; i < statements; ++i) statement(/*nested=*/false);
    out_ << "ldloc 4\nldc 1\nadd\nstloc 4\nbr loop\ndone:\n"
         << "ldloc 0\nldloc 1\nxor\nldloc 2\nadd\nldloc 3\nsub\nret\n.end\n";
    return out_.str();
  }

  /// Arguments: ints, now and then a float or a buffer in one slot so
  /// the superinstructions' kind checks trap.
  std::vector<Value> args() {
    std::vector<Value> args;
    for (int i = 0; i < 3; ++i) args.push_back(Value::from_int(value()));
    const auto roll = rng_.uniform_u64(20);
    const auto slot = rng_.uniform_u64(3);
    if (roll == 0) args[slot] = Value::from_float(1.5);
    if (roll == 1) args[slot] = kernels::make_buffer({});
    return args;
  }

 private:
  /// Mostly small values (so divisors hit zero and shifts stay in range),
  /// sometimes the i64 bounds (so add, sub and mul wrap).
  std::int64_t value() {
    switch (rng_.uniform_u64(8)) {
      case 0: return kMin;
      case 1: return kMax;
      case 2: return rng_.uniform_i64(-100000, 100000);
      default: return rng_.uniform_i64(-3, 70);
    }
  }
  const char* scalar() { return kScalars[rng_.uniform_u64(7)]; }
  std::string store() {
    const std::string load = scalar();
    return (load[2] == 'a' ? "starg" : "stloc") + load.substr(5);
  }
  /// "ldc <imm>\n<op>\n" for a random binary op; shift counts stay in
  /// range but one time in sixteen.
  std::string binop_imm() {
    const std::string op = kBinops[rng_.uniform_u64(8)];
    const bool shift = op == "shl" || op == "shr";
    const std::int64_t imm =
        !shift ? value()
               : (rng_.uniform_u64(16) == 0 ? 64 : rng_.uniform_i64(0, 63));
    return "ldc " + std::to_string(imm) + "\n" + op + "\n";
  }
  const char* binop() { return kBinops[rng_.uniform_u64(8)]; }
  const char* relation() { return kRelations[rng_.uniform_u64(6)]; }
  const char* cond() { return rng_.uniform_u64(2) == 0 ? "brtrue" : "brfalse"; }
  std::string label() { return "l" + std::to_string(labels_++); }
  std::string container() { return rng_.uniform_u64(2) == 0 ? "5" : "7"; }

  /// One stack-neutral statement; `nested` ones do not branch.
  void statement(bool nested) {
    const auto kind = rng_.uniform_u64(nested ? 5 : 18);
    const auto guarded = [&](const std::string& test) {
      const std::string skip = label();
      out_ << test << cond() << " " << skip << "\n";
      statement(/*nested=*/true);
      out_ << skip << ":\n";
    };
    switch (kind) {
      case 0:  // slot op imm, stored
        out_ << scalar() << "\n" << binop_imm() << store() << "\n";
        break;
      case 1:  // slot op slot, stored
        out_ << scalar() << "\n" << scalar() << "\n" << binop() << "\n"
             << store() << "\n";
        break;
      case 2: {  // slot += imm, via add or sub
        const std::string load = scalar();
        out_ << load << "\nldc " << value() << "\n"
             << (rng_.uniform_u64(2) == 0 ? "add" : "sub") << "\n"
             << (load[2] == 'a' ? "starg" : "stloc") << load.substr(5)
             << "\n";
        break;
      }
      case 3:  // slot = imm
        out_ << "ldc " << value() << "\n" << store() << "\n";
        break;
      case 4:  // (slot op imm) op imm
        out_ << scalar() << "\n" << binop_imm() << binop_imm() << store()
             << "\n";
        break;
      case 5:  // compare two slots and branch
        guarded(std::string(scalar()) + "\n" + scalar() + "\n" + relation() +
                "\n");
        break;
      case 6:  // test two slots' common bits and branch
        guarded(std::string(scalar()) + "\n" + scalar() + "\nand\n");
        break;
      case 7:  // test a slot and branch
        guarded(std::string(scalar()) + "\n");
        break;
      case 8: {  // compare a computed value with a slot and branch
        std::ostringstream test;
        test << scalar() << "\n"
             << binop_imm() << scalar() << "\n"
             << relation() << "\n";
        guarded(test.str());
        break;
      }
      case 9:  // load an element at a slot index
        out_ << scalar() << "\nldc 15\nand\nstloc 6\nldloc " << container()
             << "\nldloc 6\nldelem\n" << store() << "\n";
        break;
      case 10:  // store an element at a clamped index; now and then a
                // float, which an array holds and a buffer refuses
        out_ << "ldloc " << container() << "\n" << scalar()
             << "\nldc 15\nand\n"
             << (rng_.uniform_u64(8) == 0 ? "ldcf 2.5" : scalar())
             << "\nstelem\n";
        break;
      case 11:  // the plain-only integer ops
        out_ << scalar() << "\n" << scalar() << "\n"
             << (rng_.uniform_u64(2) == 0 ? "div" : "rem") << "\nneg\n"
             << store() << "\n";
        break;
      case 12: {  // a branch target inside a would-be slot += imm run
        const std::string load = scalar();
        const std::string inside = label();
        out_ << load << "\n" << scalar() << "\n" << cond() << " " << inside
             << "\npop\n" << load << "\n" << inside << ":\nldc " << value()
             << "\nadd\n" << store() << "\n";
        break;
      }
      case 13:  // load an element at an index computed inside the borrow
        out_ << "ldloc " << container() << "\n" << scalar()
             << "\nldc 15\nand\nldelem\n" << store() << "\n";
        break;
      case 14: {  // load an element at slot + imm + slot; one time in
                  // four an index part is a scalar, mostly out of range
        const bool wild = rng_.uniform_u64(4) == 0;
        out_ << scalar() << "\nldc 7\nand\nstloc 6\nldloc " << container()
             << "\n" << (wild ? scalar() : "ldloc 6") << "\nldc "
             << rng_.uniform_u64(2) << "\nadd\nldloc 6\nadd\nldelem\n"
             << store() << "\n";
        break;
      }
      case 15: {  // a store to the container's slot before its ldelem:
                  // the ldelem must read the old container
        const std::string c = container();
        out_ << "ldloc " << c << "\nldloc " << (c == "5" ? "7" : "5")
             << "\nstloc " << c << "\nldloc 6\nldelem\n" << store() << "\n";
        break;
      }
      case 16:  // nested, as in bitap's masks[buf[i]]
        out_ << "ldloc " << container() << "\nldloc " << container()
             << "\nldloc 6\nldelem\nldc 15\nand\nldelem\n" << store()
             << "\n";
        break;
      case 17: {  // compare the element at slot + imm + slot with a slot
                  // and branch, as in dmine's scan loop; one time in four
                  // an index part is a scalar, mostly out of range
        const bool wild = rng_.uniform_u64(4) == 0;
        out_ << scalar() << "\nldc 7\nand\nstloc 6\n";
        guarded("ldloc " + container() + "\n" +
                (wild ? scalar() : "ldloc 6") + "\nldc " +
                std::to_string(rng_.uniform_u64(2)) +
                "\nadd\nldloc 6\nadd\nldelem\n" + scalar() + "\n" +
                relation() + "\n");
        break;
      }
    }
  }

  util::Rng rng_;
  std::ostringstream out_;
  int labels_ = 0;
};

TEST(TierDifferential, GeneratedProgramsAgreeAndReachEverySuperinstruction) {
  std::set<Op> emitted;
  std::uint64_t traps = 0;
  std::uint64_t insns = 0;
  std::uint64_t dispatches = 0;
  const std::uint64_t first = first_program_seed();
  for (std::uint64_t seed = first; seed < first + 400; ++seed) {
    ProgramGenerator gen(seed);
    const std::string source = gen.method();
    const Module module = assemble(source);
    std::vector<std::vector<Value>> calls;
    for (int call = 0; call < 3; ++call) calls.push_back(gen.args());
    // The first call tiers the fused engine up: its stream is this one.
    for (const Op op : fused_ops(module, "gen", calls[0])) {
      emitted.insert(op);
    }
    TierPair tiers(module);
    for (int call = 0; call < 3; ++call) {
      const Outcome out = tiers.expect_same(
          "gen", calls[static_cast<std::size_t>(call)],
          "seed " + std::to_string(seed) + " call " + std::to_string(call) +
              "\n" + source);
      traps += out.result.starts_with("trap ") ? 1 : 0;
      insns += out.insns;
      dispatches += out.dispatches;
    }
    if (HasFailure()) break;  // one program's listing is enough
  }
  for (auto op = static_cast<std::size_t>(Op::kOpCount_);
       op < static_cast<std::size_t>(Op::kHandlerCount_); ++op) {
    EXPECT_TRUE(emitted.contains(static_cast<Op>(op)))
        << "no generated program emits superinstruction " << op;
  }
  // Both outcomes occur often enough to mean something.
  EXPECT_GT(traps, 50u);
  EXPECT_LT(traps, 900u);
  EXPECT_LT(dispatches, insns * 3 / 4);
}

// ---- hand cases ----

TEST(TierDifferential, BranchTargetInsideARunSplitsIt) {
  // `inside` lands on the ldc of a would-be `ldarg 0; ldc 5; add; starg 0`,
  // so that run must not fuse into kIncS: the branch would skip its
  // first half.
  const Module module = assemble(R"(
.method f 2 0
  ldarg 0
  ldarg 1
  brtrue inside
  pop
  ldarg 0
inside:
  ldc 5
  add
  starg 0
  ldarg 0
  ret
.end
)");
  const auto ops = fused_ops(module, "f", ints(2));
  EXPECT_EQ(ops.count(Op::kIncS), 0u);
  EXPECT_EQ(ops.count(Op::kAddTI), 1u);  // the run after the target fuses
  EXPECT_EQ(ops.count(Op::kBrTrueS), 1u);
  TierPair tiers(module);
  for (const std::int64_t taken : {0, 1}) {
    const Outcome out = tiers.expect_same(
        "f", {Value::from_int(10), Value::from_int(taken)},
        "taken " + std::to_string(taken));
    EXPECT_EQ(out.result, "int 15");
  }
}

TEST(TierDifferential, BranchTargetInsideABorrowKeepsTheLoad) {
  // `join` lies between the buffer's load and its ldelem, and the branch
  // to it arrives with the array on the stack: the load must stay, or the
  // taken path would read the buffer's slot.
  const Module module = assemble(R"(
.method f 1 2
  ldc 4
  syscall buf_new
  stloc 0
  ldloc 0
  ldc 2
  ldc 9
  stelem
  ldc 4
  newarr
  stloc 1
  ldloc 1
  ldarg 0
  brtrue join
  pop
  ldloc 0
join:
  ldc 2
  ldelem
  ret
.end
)");
  EXPECT_EQ(fused_ops(module, "f", ints(1)).count(Op::kLdElem), 1u);
  TierPair tiers(module);
  EXPECT_EQ(tiers.expect_same("f", {Value::from_int(1)}, "taken").result,
            "int 0");
  EXPECT_EQ(tiers.expect_same("f", {Value::from_int(0)}, "not taken").result,
            "int 9");
}

TEST(TierDifferential, EverySuperinstructionTrapsAtItsCheckingInstruction) {
  // For each superinstruction, a method whose run reaches that op.  arg 0
  // is the operand under test, arg 1 the int 3.  The first call tiers the
  // fused engine up on arg 0's proven kind: the int 65 (an index out of
  // range, a shift count of 65) or, for a container, the empty buffer
  // (every index out of range), so the run traps at the checks a proof
  // leaves.  The int 0 runs it through, or traps in a div.  Every other
  // kind misses the entry guard and runs the plain decode, which traps at
  // the first instruction that reads arg 0.  Each method starts with a
  // few counted instructions so a miscounted trap shows.
  struct Case {
    std::string body;  ///< the run under test; must fuse to `op`
    Op op;
    bool container = false;  ///< arg 0 is the borrowed container
  };
  // Pushes local 0, which the method first sets to an 8-byte buffer.
  const std::string kBuffer = "ldloc 0\n";
  std::vector<Case> cases = {
      {"ldarg 0\nbrtrue out\n", Op::kBrTrueS},
      {"ldarg 0\nbrfalse out\n", Op::kBrFalseS},
      {"ldarg 1\nldarg 0\nand\nbrtrue out\n", Op::kBrTrueAndSS},
      {"ldarg 0\nldarg 1\nand\nbrfalse out\n", Op::kBrFalseAndSS},
      {"ldarg 0\nldc 1\nadd\nstarg 0\n", Op::kIncS},
      {"ldarg 0\nldc 1\nsub\nstarg 0\nbr out\n", Op::kIncSBr},
      // Borrowed element loads whose container is arg 0.
      {"ldarg 0\nldarg 1\nldelem\npop\n", Op::kLdElemSS, true},
      {"ldarg 0\nldarg 1\nldc 1\nadd\nldarg 1\nadd\nldelem\npop\n",
       Op::kLdElemSIS, true},
      {"ldarg 0\nldarg 1\nldc 1\nshl\nldelem\npop\n", Op::kLdElemS, true},
      {"ldarg 0\n" + kBuffer + "ldarg 1\nldelem\nldelem\npop\n",
       Op::kLdElemS, true},
      // An index part is arg 0: the wrong kind, or (65) out of range.
      {kBuffer + "ldarg 0\nldelem\npop\n", Op::kLdElemSS},
      {kBuffer + "ldarg 0\nldc 1\nadd\nldarg 1\nadd\nldelem\npop\n",
       Op::kLdElemSIS},
      {kBuffer + "ldarg 1\nldc 1\nadd\nldarg 0\nadd\nldelem\npop\n",
       Op::kLdElemSIS},
      {kBuffer + "ldarg 0\nnop\nldelem\npop\n", Op::kLdElemS},
      // A trap inside an index computation a borrow spans: the frame
      // counts the elided load as it unwinds.
      {kBuffer + "ldarg 0\nldc 1\nshl\nldelem\npop\n", Op::kLdElemS},
      {kBuffer + "ldarg 1\nldarg 0\ndiv\nldelem\npop\n", Op::kLdElemS},
      {"ldarg 1\n" + kBuffer + "ldarg 0\nldelem\nldelem\npop\n",
       Op::kLdElemSS},
  };
  // brfalse branches when the relation fails: it fuses to the negation.
  const char* const relation_names[] = {"eq", "ne", "lt", "le", "gt", "ge"};
  const int negated[] = {1, 0, 5, 4, 3, 2};
  const Op slot_slot[] = {Op::kBrEqSS, Op::kBrNeSS, Op::kBrLtSS,
                          Op::kBrLeSS, Op::kBrGtSS, Op::kBrGeSS};
  const Op top_slot[] = {Op::kBrEqTS, Op::kBrNeTS, Op::kBrLtTS,
                         Op::kBrLeTS, Op::kBrGtTS, Op::kBrGeTS};
  const Op element[] = {Op::kBrEqElemSIS, Op::kBrNeElemSIS,
                        Op::kBrLtElemSIS, Op::kBrLeElemSIS,
                        Op::kBrGtElemSIS, Op::kBrGeElemSIS};
  for (int r = 0; r < 6; ++r) {
    const std::string cmp = std::string("cmp") + relation_names[r];
    // The element compare: arg 0 in the index, then as the compared slot.
    cases.push_back({kBuffer +
                         "ldarg 0\nldc 1\nadd\nldarg 1\nadd\nldelem\n"
                         "ldarg 1\n" + cmp + "\nbrtrue out\n",
                     element[r]});
    cases.push_back({kBuffer +
                         "ldarg 1\nldc 1\nadd\nldarg 1\nadd\nldelem\n"
                         "ldarg 0\n" + cmp + "\nbrfalse out\n",
                     element[negated[r]]});
    cases.push_back({"ldarg 1\nldarg 0\n" + cmp + "\nbrtrue out\n",
                     slot_slot[r]});
    cases.push_back({"ldarg 0\nldarg 1\n" + cmp + "\nbrfalse out\n",
                     slot_slot[negated[r]]});
    cases.push_back({"ldc 3\nldarg 0\n" + cmp + "\nbrtrue out\n",
                     top_slot[r]});
    cases.push_back({"ldarg 0\nnop\nldarg 1\n" + cmp + "\nbrfalse out\n",
                     top_slot[negated[r]]});
  }
  const Op slot_imm[] = {Op::kAddSI, Op::kSubSI, Op::kMulSI, Op::kAndSI,
                         Op::kOrSI,  Op::kXorSI, Op::kShlSI, Op::kShrSI};
  const Op top_slot_ops[] = {Op::kAddTS, Op::kSubTS, Op::kMulTS, Op::kAndTS,
                             Op::kOrTS,  Op::kXorTS, Op::kShlTS, Op::kShrTS};
  const Op top_imm[] = {Op::kAddTI, Op::kSubTI, Op::kMulTI, Op::kAndTI,
                        Op::kOrTI,  Op::kXorTI, Op::kShlTI, Op::kShrTI};
  for (int b = 0; b < 8; ++b) {
    const std::string op = kBinops[b];
    cases.push_back({"ldarg 0\nldc 2\n" + op + "\npop\n", slot_imm[b]});
    cases.push_back({"ldc 2\nldarg 0\n" + op + "\npop\n", top_slot_ops[b]});
    cases.push_back({"ldarg 0\nnop\nldarg 1\n" + op + "\npop\n",
                     top_slot_ops[b]});  // the top is the wrong kind
    cases.push_back({"ldarg 0\nnop\nldc 3\n" + op + "\npop\n", top_imm[b]});
    // A shift count of 64 or 65 traps in the shift itself.
    cases.push_back({"ldarg 1\nldc 64\n" + op + "\npop\n", slot_imm[b]});
    cases.push_back({"ldarg 1\nldarg 0\n" + op + "\npop\n",
                     top_slot_ops[b]});
  }
  const Value arg1 = Value::from_int(3);
  for (const Case& c : cases) {
    const std::string source =
        ".method f 2 1\nldc 8\nsyscall buf_new\nstloc 0\nldloc 0\npop\n" +
        c.body +
        "ldc 0\nret\nout:\nldc 1\nret\n.end\n";
    const Module module = assemble(source);
    // arg 0's values: the seed and one more of its kind, then the kinds
    // that miss the guard.
    std::vector<Value> values;
    if (c.container) {
      values = {kernels::make_buffer({}), kernels::make_buffer({}),
                Value::from_int(65), Value::from_float(2.5),
                kernels::make_string("abc"), kernels::bitap_masks("ab")};
    } else {
      values = {Value::from_int(65), Value::from_int(0),
                Value::from_float(2.5), kernels::make_buffer({}),
                kernels::make_string("abc")};
    }
    EXPECT_EQ(fused_ops(module, "f", {values[0], arg1}).count(c.op), 1u)
        << source;
    TierPair tiers(module);
    for (const Value& v : values) tiers.expect_same("f", {v, arg1}, source);
    EXPECT_EQ(tiers.fused.jit_stats().guard_misses, values.size() - 2)
        << source;
  }
}

// ---- the kind proof and its guard ----

TEST(TierDifferential, GuardMissRunsThePlainDecode) {
  // f(buf, n, k) counts the j < n with buf[2j] == k and sums buf[j]: its
  // loop fuses to kBrGeSS, kBrNeElemSIS, kIncS, kLdElemSS, kAddTS and
  // kIncSBr, all of which read arguments they trust to be a buffer and
  // two ints.
  const Module module = assemble(R"(
.method f 3 2
  ldc 0
  stloc 0
  ldc 0
  stloc 1
loop:
  ldloc 1
  ldarg 1
  cmpge
  brtrue done
  ldarg 0
  ldloc 1
  ldc 0
  add
  ldloc 1
  add
  ldelem
  ldarg 2
  cmpeq
  brfalse next
  ldloc 0
  ldc 1
  add
  stloc 0
next:
  ldarg 0
  ldloc 1
  ldelem
  ldloc 0
  add
  stloc 0
  ldloc 1
  ldc 1
  add
  stloc 1
  br loop
done:
  ldloc 0
  ret
.end
)");
  std::vector<std::byte> bytes(16);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i % 3);
  }
  const Value buf = kernels::make_buffer(bytes);
  const std::vector<Value> seed = {buf, Value::from_int(8),
                                   Value::from_int(2)};
  const auto ops = fused_ops(module, "f", seed);
  for (const Op op : {Op::kBrGeSS, Op::kBrNeElemSIS, Op::kIncS,
                      Op::kLdElemSS, Op::kAddTS, Op::kIncSBr}) {
    EXPECT_EQ(ops.count(op), 1u) << static_cast<int>(op);
  }
  TierPair tiers(module);
  const JitStats& stats = tiers.fused.jit_stats();
  // The first call tiers up on a buffer and two ints.
  Outcome out = tiers.expect_same("f", seed, "seed kinds");
  EXPECT_LT(out.dispatches, out.insns);
  EXPECT_EQ(stats.compilations, 1u);
  // An array, a float and a string in those positions: the guard misses
  // and the call runs the plain decode, which traps at the first compare.
  out = tiers.expect_same("f",
                          {kernels::bitap_masks("ab"), Value::from_float(8),
                           kernels::make_string("2")},
                          "array, float, string");
  EXPECT_EQ(out.result, "trap Value: expected int");
  EXPECT_EQ(out.dispatches, out.insns);
  EXPECT_EQ(stats.guard_misses, 1u);
  // An array alone runs to the end on the plain decode.
  out = tiers.expect_same(
      "f", {kernels::bitap_masks("ab"), Value::from_int(8), Value::from_int(0)},
      "array");
  EXPECT_EQ(out.result, "int 8");
  EXPECT_EQ(out.dispatches, out.insns);
  EXPECT_EQ(stats.guard_misses, 2u);
  // The seed kinds run fused again, and so does their out-of-range trap
  // in kBrNeElemSIS.
  out = tiers.expect_same("f", seed, "seed kinds again");
  EXPECT_LT(out.dispatches, out.insns);
  out = tiers.expect_same("f", {buf, Value::from_int(9), Value::from_int(2)},
                          "buf[16]");
  EXPECT_EQ(out.result, "trap interpreter: buffer index out of range");
  EXPECT_LT(out.dispatches, out.insns);
  EXPECT_EQ(stats.guard_misses, 2u);
  EXPECT_EQ(stats.compilations, 1u);
}

TEST(TierDifferential, UnprovenOperandsStayPlain) {
  // Each method reads a slot the kind pass cannot prove an int, with the
  // same argument kinds on every call: an array element, a call result,
  // and a local stored with an int on one path and a float on the other.
  // The runs over that slot stay plain and trap as tier 0 does; the runs
  // over proven slots still fuse.
  const Module module = assemble(R"(
.method element 1 1
  ldarg 0
  ldc 0
  ldelem
  stloc 0
  ldloc 0
  brfalse zero
  ldloc 0
  ldc 5
  add
  ret
zero:
  ldc 7
  ret
.end
.method pick 2 0
  ldarg 0
  ldarg 1
  ldelem
  ret
.end
.method result 2 1
  ldarg 0
  ldarg 1
  call pick
  stloc 0
  ldloc 0
  ldc 2
  mul
  ret
.end
.method paths 2 1
  ldarg 0
  brtrue float
  ldarg 1
  stloc 0
  br join
float:
  ldcf 1.5
  stloc 0
join:
  ldloc 0
  ldc 3
  add
  ret
.end
)");
  const auto array = [](std::vector<Value> elements) {
    return Value::from_obj(std::make_shared<Obj>(std::move(elements)));
  };
  const Value mixed = array({Value::from_int(4), Value::from_float(1.5),
                             kernels::make_buffer({})});

  auto ops = fused_ops(module, "element", {mixed});
  EXPECT_EQ(ops.count(Op::kLdElemS), 1u);  // the array itself is proven
  EXPECT_EQ(ops.count(Op::kBrFalseS), 0u);
  EXPECT_EQ(ops.count(Op::kAddSI), 0u);
  ops = fused_ops(module, "result", {mixed, Value::from_int(0)});
  EXPECT_EQ(ops.count(Op::kMulSI), 0u);
  ops = fused_ops(module, "paths", ints(2));
  EXPECT_EQ(ops.count(Op::kBrTrueS), 1u);  // arg 0 is proven
  EXPECT_EQ(ops.count(Op::kAddSI), 0u);

  TierPair tiers(module);
  const auto same = [&](std::string_view method, std::vector<Value> args,
                        const std::string& expected) {
    const Outcome out =
        tiers.expect_same(method, args, std::string(method) + " " + expected);
    EXPECT_EQ(out.result, expected) << method;
  };
  same("element", {mixed}, "int 9");
  same("element", {array({Value::from_float(1.5)})},
       "trap Value: expected int");
  same("element", {array({kernels::make_buffer({})})},
       "trap Value: expected int");
  same("element", {array({Value::from_int(0)})}, "int 7");
  same("result", {mixed, Value::from_int(0)}, "int 8");
  same("result", {mixed, Value::from_int(1)}, "trap Value: expected int");
  same("result", {mixed, Value::from_int(2)}, "trap Value: expected int");
  same("paths", ints(2), "trap Value: expected int");
  same("paths", {Value::from_int(0), Value::from_int(4)}, "int 7");
  EXPECT_EQ(tiers.fused.jit_stats().guard_misses, 0u);
}

TEST(TierDifferential, StargAndStlocMixesLandInTheirSlots) {
  // Arguments and locals share one slot space in the fused tier: kIncS
  // and kStSI must write the slot their starg/stloc named, and a run
  // whose load and store name different slots must not become kIncS.
  const Module module = assemble(R"(
.method f 2 2
  ldc 3
  starg 1
  ldarg 0
  ldc 1
  add
  starg 0
  ldarg 0
  ldc 2
  add
  stloc 1
  ldloc 1
  ldc 1
  sub
  starg 0
  ldc 0
  stloc 0
loop:
  ldarg 1
  brfalse done
  ldarg 1
  ldc 1
  sub
  starg 1
  ldloc 0
  ldc 100
  add
  stloc 0
  br loop
done:
  ldarg 0
  ldloc 0
  add
  ldloc 1
  mul
  ldarg 1
  add
  ret
.end
)");
  const auto ops = fused_ops(module, "f", ints(2));
  EXPECT_EQ(ops.count(Op::kStSI), 2u);
  EXPECT_EQ(ops.count(Op::kIncS), 2u);
  EXPECT_EQ(ops.count(Op::kIncSBr), 1u);
  TierPair tiers(module);
  for (const std::int64_t a : {0, 7, -9}) {
    const Outcome out = tiers.expect_same(
        "f", {Value::from_int(a), Value::from_int(99)},
        "a = " + std::to_string(a));
    // arg 1 = 3; arg 0 = a + 1; local 1 = a + 3; arg 0 = a + 2; the loop
    // runs 3 times: local 0 = 300, arg 1 = 0.
    EXPECT_EQ(out.result, "int " + std::to_string((a + 302) * (a + 3)));
  }
}

TEST(TierDifferential, AStoreToTheContainerSlotBlocksTheBorrow) {
  // `stloc 0` between the container's load and its ldelem: the ldelem must
  // read the old container (the buffer), not the array the slot then
  // holds, so the load stays on the stack.
  const Module module = assemble(R"(
.method f 1 2
  ldc 4
  syscall buf_new
  stloc 0
  ldloc 0
  ldc 2
  ldc 7
  stelem
  ldc 4
  newarr
  stloc 1
  ldloc 0
  ldloc 1
  stloc 0
  ldarg 0
  ldelem
  ret
.end
)");
  const auto ops = fused_ops(module, "f", ints(1));
  EXPECT_EQ(ops.count(Op::kLdElem), 1u);
  EXPECT_EQ(ops.count(Op::kLdElemS) + ops.count(Op::kLdElemSS), 0u);
  TierPair tiers(module);
  EXPECT_EQ(tiers.expect_same("f", {Value::from_int(2)}, "in range").result,
            "int 7");
  EXPECT_EQ(tiers.expect_same("f", {Value::from_int(5)}, "past 4").result,
            "trap interpreter: buffer index out of range");
}

// ---- lifetimes of borrowed containers (run under ASan in CI) ----

TEST(TierDifferential, BorrowedContainerWhoseSlotIsItsOnlyOwner) {
  // Local 0 holds the only reference to the buffer.  The borrowed reads
  // take none, and the store that drops the buffer comes after the
  // element is on the stack.
  const Module module = assemble(R"(
.method f 1 2
  ldarg 0
  syscall buf_new
  stloc 0
  ldloc 0
  ldc 1
  ldc 42
  stelem
  ldc 1
  stloc 1
  ldloc 0
  ldloc 1
  ldelem
  ldloc 0
  ldc 0
  ldelem
  ldc 0
  stloc 0
  add
  ret
.end
)");
  const auto ops = fused_ops(module, "f", ints(1));
  EXPECT_EQ(ops.count(Op::kLdElemSS), 1u);
  EXPECT_EQ(ops.count(Op::kLdElemS), 1u);
  TierPair tiers(module);
  EXPECT_EQ(tiers.expect_same("f", {Value::from_int(3)}, "3 bytes").result,
            "int 42");
  EXPECT_EQ(tiers.expect_same("f", {Value::from_int(1)}, "1 byte").result,
            "trap interpreter: buffer index out of range");
}

TEST(TierDifferential, ElementOfABorrowedArrayOutlivesTheArraySlot) {
  // array[1] is a buffer only the array owns.  The borrowed read copies
  // the reference to the stack; overwriting the array's only slot then
  // frees the array, and the buffer must stay alive for arrlen.
  const Module module = assemble(R"(
.method f 0 2
  ldc 2
  newarr
  stloc 0
  ldloc 0
  ldc 1
  ldc 5
  syscall buf_new
  stelem
  ldloc 0
  ldc 1
  ldelem
  ldc 0
  stloc 0
  stloc 1
  ldloc 1
  arrlen
  ret
.end
)");
  EXPECT_EQ(fused_ops(module, "f", {}).count(Op::kLdElemS), 1u);
  TierPair tiers(module);
  EXPECT_EQ(tiers.expect_same("f", {}, "element outlives array").result,
            "int 5");
}

TEST(TierDifferential, RecursionBorrowsItsArgumentInEveryFrame) {
  // sum(buf, n) = sum(buf, n - 1) + buf[n - 1]: every frame borrows arg 0,
  // which the caller's frame and the test also hold.
  const Module module = assemble(R"(
.method sum 2 0
  ldarg 1
  brtrue more
  ldc 0
  ret
more:
  ldarg 0
  ldarg 1
  ldc 1
  sub
  call sum
  ldarg 0
  ldarg 1
  ldc -1
  add
  ldelem
  add
  ret
.end
)");
  EXPECT_EQ(fused_ops(module, "sum",
                      {kernels::make_buffer({}), Value::from_int(1)})
                .count(Op::kLdElemS),
            1u);
  std::vector<std::byte> bytes(200);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i * 7);
    expected += static_cast<std::int64_t>((i * 7) & 0xff);
  }
  TierPair tiers(module);
  EXPECT_EQ(tiers
                .expect_same("sum",
                             {kernels::make_buffer(bytes),
                              Value::from_int(200)},
                             "200 frames")
                .result,
            "int " + std::to_string(expected));
  // Over 150 bytes, the frame with n = 151 reads buf[150] after 150 frames
  // below it returned, and the trap unwinds through the 50 above it.
  bytes.resize(150);
  EXPECT_EQ(tiers
                .expect_same("sum",
                             {kernels::make_buffer(bytes),
                              Value::from_int(200)},
                             "trap 50 frames deep")
                .result,
            "trap interpreter: buffer index out of range");
}

// Last in the file: a mutated loop test can make a kernel spin forever,
// and the cases above should report before that.
TEST(TierDifferential, PaperKernelsAgree) {
  util::TempDir dir;
  io::ManagedFileSystem fs(std::make_unique<io::RealFileStore>(dir.path()),
                           io::ManagedFsOptions{});
  const auto write = [&](const std::string& name,
                         std::span<const std::byte> data) {
    auto file = fs.open(name, io::OpenMode::kTruncate);
    file.write(data);
    file.close();
  };
  TierPair spin(assemble(kernels::kSpinSource));
  for (const std::int64_t n : {0, 1, 2, 777}) {
    spin.expect_same("spin_sum", {Value::from_int(n)},
                     "spin_sum " + std::to_string(n));
  }

  TierPair bitap(assemble(kernels::kBitapSource), &fs);
  TierPair dmine(assemble(kernels::kDmineSource), &fs);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    std::string text(3000 + rng.uniform_u64(3000), 'x');
    for (auto& ch : text) ch = static_cast<char>('a' + rng.uniform_u64(3));
    write("corpus.txt", std::as_bytes(std::span(text)));
    const std::string pattern = text.substr(rng.uniform_u64(2000), 5);
    bitap.expect_same("bitap_file",
                      {kernels::make_string("corpus.txt"),
                       kernels::bitap_masks(pattern),
                       kernels::bitap_accept(pattern),
                       Value::from_int(512 + 512 * (seed % 2))},
                      "bitap seed " + std::to_string(seed));

    std::vector<std::vector<std::uint8_t>> baskets(200);
    for (auto& basket : baskets) {
      const auto n = 2 + rng.uniform_u64(9);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto item = static_cast<std::uint8_t>(rng.uniform_u64(16));
        bool dup = false;
        for (const auto existing : basket) dup = dup || existing == item;
        if (!dup) basket.push_back(item);
      }
    }
    write("baskets.dat", apps::dmine::encode_fixed_records(baskets));
    std::vector<std::vector<std::uint8_t>> candidates;
    for (std::uint8_t c = 0; c < 6; ++c) {
      candidates.push_back({c, static_cast<std::uint8_t>(c + 3)});
    }
    dmine.expect_same("dmine_count",
                      {kernels::make_string("baskets.dat"),
                       kernels::make_buffer(
                           apps::dmine::pack_candidates(candidates, 2)),
                       Value::from_int(2), Value::from_int(256)},
                      "dmine seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace clio::vm

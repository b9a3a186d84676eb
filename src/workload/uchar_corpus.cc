#include "workload/uchar_corpus.hh"

#include <cctype>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <sstream>

#include "arch/assembler.hh"
#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "support/logging.hh"

namespace vax
{

namespace
{

// ---------------------------------------------------------------
// Memory layout (all physical, mapping off, well under 1 MB)
// ---------------------------------------------------------------

constexpr uint32_t kCodeBase = 0x1000;
constexpr uint32_t kStackTop = 0x30000;

/** Two fill regions per data flavour: the second sits exactly
 *  longDisp above the first so l^d(Rn) lands in initialized data. */
constexpr uint32_t kRegionBytes = 0x2000;
constexpr uint32_t kIntBase1 = 0x40000;
constexpr uint32_t kIntBase2 = 0x50000;
constexpr uint32_t kMidInt = 0x41000;
constexpr uint32_t kPtrTabInt = 0x48000;
constexpr uint32_t kFloatBase1 = 0x60000;
constexpr uint32_t kFloatBase2 = 0x70000;
constexpr uint32_t kMidFloat = 0x61000;
constexpr uint32_t kPtrTabFloat = 0x68000;

/** Character-op regions: source/table inside int fill region 1,
 *  destination in bare (all-zero) RAM. */
constexpr uint32_t kCharTbl = 0x40000;
constexpr uint32_t kCharSrc = 0x40100;
constexpr uint32_t kCharDst = 0x46000;

/** Packed-decimal scratch numbers P0..P3. */
constexpr uint32_t kPackedBase = 0x4A000;
constexpr uint32_t kPackedStride = 0x100;

/** Self-linked queue header for INSQUE/REMQUE. */
constexpr uint32_t kQueueHead = 0x4C000;

/** Pointer slots the jump-destination scaffolds write through. */
constexpr uint32_t kJumpSlots = 0x4E000;

/** F_floating 1.0 as a little-endian longword. */
constexpr uint32_t kFloatOne = 0x4080;

/** Varied-operand displacements.  Plain displacements address fill
 *  data directly; deferred displacements address pointer slots that
 *  point back at the region midpoint. */
constexpr int32_t kByteDisp = 8;
constexpr int32_t kWordDisp = 0x180;
constexpr int32_t kLongDisp = 0x10000;
constexpr int32_t kByteDispDef = 0x70;
constexpr int32_t kWordDispDef = 0x200;
constexpr int32_t kLongDispDef = 0x10100;

/** The engine retires HALT as a (final) instruction. */
constexpr uint64_t kHaltRetires = 1;

// ---------------------------------------------------------------
// The specifier-class axis
// ---------------------------------------------------------------

struct VMode
{
    AddrMode mode;
    bool indexed;
};

/** Enumeration order of the 15 specifier classes: AddrMode order,
 *  then the indexed pseudo-class. */
constexpr VMode kModes[] = {
    {AddrMode::ShortLiteral, false},
    {AddrMode::Register, false},
    {AddrMode::RegDeferred, false},
    {AddrMode::AutoDec, false},
    {AddrMode::AutoInc, false},
    {AddrMode::Immediate, false},
    {AddrMode::AutoIncDef, false},
    {AddrMode::Absolute, false},
    {AddrMode::ByteDisp, false},
    {AddrMode::ByteDispDef, false},
    {AddrMode::WordDisp, false},
    {AddrMode::WordDispDef, false},
    {AddrMode::LongDisp, false},
    {AddrMode::LongDispDef, false},
    {AddrMode::RegDeferred, true},
};

std::string
modeKey(const VMode &vm)
{
    return vm.indexed ? "indexed" : addrModeName(vm.mode);
}

/** The spec matrix: why a class is illegal for an access type, or
 *  nullptr if it is legal (mirrors ulint's slot rules). */
const char *
modeIllegalReason(const VMode &vm, Access acc)
{
    if (vm.indexed)
        return nullptr; // base is (Rn); legal for every access class
    if (vm.mode == AddrMode::ShortLiteral ||
        vm.mode == AddrMode::Immediate) {
        if (acc != Access::Read)
            return "short-literal/immediate specifiers are read-only "
                   "(spec matrix)";
    } else if (vm.mode == AddrMode::Register) {
        if (acc == Access::Address)
            return "register mode has no address";
    }
    return nullptr;
}

// ---------------------------------------------------------------
// Harness selection
// ---------------------------------------------------------------

/** How the measured instruction must be embedded in the loop body. */
enum class Harness : uint8_t {
    Plain,    ///< instruction stands alone; any branch disp targets
              ///< the fall-through
    Jump,     ///< JMP: destination scaffold per mode, lands at the
              ///< next copy
    JsbJump,  ///< JSB: like Jump, destination is the shared RSB
    BsbPair,  ///< BSBB/BSBW/RSB: call the shared RSB and return
    Case,     ///< CASEx: inline 2-entry table, all roads lead to next
    CallMask, ///< CALLG/CALLS: entry mask inline, no return
    RetPair,  ///< RET: CALLS/RET pair per copy
    Rei,      ///< REI: push PSL/PC, REI to the next copy
    Skip,     ///< cannot run in the bare loop at all
};

Harness
harnessFor(const OpcodeInfo &info, const char **skip_reason)
{
    *skip_reason = nullptr;
    switch (info.flow) {
      case ExecFlow::Halt:
        *skip_reason = "halts the machine mid-loop";
        return Harness::Skip;
      case ExecFlow::Bpt:
        *skip_reason =
            "faults through the SCB; no handler in the bare harness";
        return Harness::Skip;
      case ExecFlow::Chmk:
        *skip_reason =
            "faults through the SCB; no handler in the bare harness";
        return Harness::Skip;
      case ExecFlow::SvPctx:
      case ExecFlow::LdPctx:
        *skip_reason = "requires process-context (PCB) setup";
        return Harness::Skip;
      case ExecFlow::Jmp:
        return Harness::Jump;
      case ExecFlow::Jsb:
        return Harness::JsbJump;
      case ExecFlow::Bsb:
      case ExecFlow::Rsb:
        return Harness::BsbPair;
      case ExecFlow::Case:
        return Harness::Case;
      case ExecFlow::CallG:
      case ExecFlow::CallS:
        return Harness::CallMask;
      case ExecFlow::Ret:
        return Harness::RetPair;
      case ExecFlow::Rei:
        return Harness::Rei;
      default:
        return Harness::Plain;
    }
}

// ---------------------------------------------------------------
// Program builder
// ---------------------------------------------------------------

using Bytes = std::shared_ptr<const std::vector<uint8_t>>;

/** One fill region: `value` repeated as little-endian longwords. */
Bytes
fillImage(uint32_t value)
{
    auto img = std::make_shared<std::vector<uint8_t>>(kRegionBytes);
    for (size_t i = 0; i < kRegionBytes; ++i)
        (*img)[i] = static_cast<uint8_t>(value >> (8 * (i % 4)));
    return img;
}

/** The fill-region images of one corpus.  A region's bytes depend
 *  only on its data flavour, so every program (and both regions of a
 *  flavour) points at one of these two buffers. */
struct FillImages
{
    Bytes intFill = fillImage(1);
    Bytes floatFill = fillImage(kFloatOne);
};

struct Builder
{
    const OpcodeInfo &info;
    const UcharParams &p;
    const FillImages &fills;
    VMode vm{AddrMode::Register, false};
    bool noSpec = false;
    Harness h = Harness::Plain;

    bool floatRegion = false;
    uint32_t mid = kMidInt;
    uint32_t ptrTab = kPtrTabInt;
    uint32_t aux = kPtrTabInt; ///< preamble value of R8
    uint32_t ipc = 1;          ///< dynamic instructions per copy
    bool needRsb = false;

    Assembler a{kCodeBase};
    Label rsb = a.newLabel(); ///< the shared RSB (placed if needRsb)
    std::vector<uint32_t> offsets;

    /** Static instruction profile, built by the assembler hook: each
     *  emitted instruction is recorded with the dynamic multiplicity
     *  of the image section being laid down (hookMult). */
    std::vector<UcharProfileEntry> profile;
    uint64_t hookMult = 1;

    Builder(const OpcodeInfo &info_, const UcharParams &p_,
            const FillImages &fills_)
        : info(info_), p(p_), fills(fills_)
    {
    }

    void
    recordInstr(const OpcodeInfo &ii, std::span<const Operand> ops)
    {
        if (hookMult == 0)
            return;
        std::vector<UcharSpecUse> specs;
        for (const Operand &o : ops) {
            if (o.isBranch())
                continue; // branch displacements are not specifiers
            specs.push_back(UcharSpecUse{o.specMode(), o.isIndexed()});
        }
        for (UcharProfileEntry &e : profile) {
            if (e.opcode == ii.opcode && e.specs == specs) {
                e.count += hookMult;
                return;
            }
        }
        profile.push_back(
            UcharProfileEntry{ii.opcode, hookMult, std::move(specs)});
    }

    /** Mark the next emitted instruction as the measured one. */
    void
    markTarget()
    {
        offsets.push_back(
            static_cast<uint32_t>(a.here() - a.base()));
    }

    Operand
    variedOperand() const
    {
        Access acc = info.operands[0].access;
        bool isRead = acc == Access::Read;
        if (vm.indexed)
            return Operand::regDef(R10).idx(R3);
        switch (vm.mode) {
          case AddrMode::ShortLiteral:
            return Operand::lit(1);
          case AddrMode::Register:
            if (floatRegion)
                return Operand::reg(isRead ? R4 : R5);
            return Operand::reg(isRead ? R2 : R3);
          case AddrMode::RegDeferred:
            return Operand::regDef(R10);
          case AddrMode::AutoDec:
            return Operand::autoDec(R10);
          case AddrMode::AutoInc:
            return Operand::autoInc(R10);
          case AddrMode::Immediate:
            return Operand::imm(floatRegion ? kFloatOne : 1);
          case AddrMode::AutoIncDef:
            return Operand::autoIncDef(R8);
          case AddrMode::Absolute:
            return Operand::absolute(mid);
          case AddrMode::ByteDisp:
            return Operand::dispWidth(kByteDisp, R10, 1);
          case AddrMode::ByteDispDef:
            return Operand::dispDefWidth(kByteDispDef, R10, 1);
          case AddrMode::WordDisp:
            return Operand::dispWidth(kWordDisp, R10, 2);
          case AddrMode::WordDispDef:
            return Operand::dispDefWidth(kWordDispDef, R10, 2);
          case AddrMode::LongDisp:
            return Operand::dispWidth(kLongDisp, R10, 4);
          case AddrMode::LongDispDef:
            return Operand::dispDefWidth(kLongDispDef, R10, 4);
          default:
            fatal("uchar: unreachable varied mode");
        }
    }

    /** Fixed operand for position i > 0 (or i == 0 of a no-spec op's
     *  non-branch operand, which does not occur). */
    Operand
    defaultOperand(unsigned i, unsigned addr_seq) const
    {
        const OperandDef &def = info.operands[i];
        if (info.opcode == op::MTPR && i == 1)
            return Operand::lit(63); // unmodeled, safely writable IPR
        switch (def.access) {
          case Access::Address:
            return Operand::absolute(addressFor(addr_seq));
          case Access::Field:
            // Memory base: no 32-bit position limit, and the
            // bit-setting branches (BBSS) cannot feed the base back
            // into their own position operand.
            return Operand::absolute(mid);
          case Access::Read:
            if (def.type == DataType::FFloat)
                return Operand::reg(R4);
            if (def.type == DataType::Quad)
                return Operand::reg(R2);
            return Operand::lit(1);
          default: // Write / Modify
            if (def.type == DataType::FFloat)
                return Operand::reg(R5);
            return Operand::reg(R3);
        }
    }

    /** Address for the addr_seq'th fixed Address operand. */
    uint32_t
    addressFor(unsigned addr_seq) const
    {
        switch (info.flow) {
          case ExecFlow::MovC3:
          case ExecFlow::MovC5:
          case ExecFlow::CmpC:
            return addr_seq == 0 ? kCharSrc : kCharDst;
          case ExecFlow::Locc:
            return kCharSrc;
          case ExecFlow::Scanc:
            return addr_seq == 0 ? kCharSrc : kCharTbl;
          case ExecFlow::InsQue:
            return kQueueHead; // predecessor
          default:
            if (info.group == Group::Decimal)
                return kPackedBase + kPackedStride * addr_seq;
            return mid;
        }
    }

    void
    emitPreamble()
    {
        a.instr(op::MOVL, {Operand::imm(1), Operand::reg(R2)});
        a.instr(op::MOVL, {Operand::imm(0), Operand::reg(R3)});
        a.instr(op::MOVL, {Operand::imm(kFloatOne), Operand::reg(R4)});
        a.instr(op::MOVL, {Operand::imm(kFloatOne), Operand::reg(R5)});
        a.instr(op::MOVL, {Operand::imm(aux), Operand::reg(R8)});
        a.instr(op::MOVL, {Operand::imm(mid), Operand::reg(R10)});
        a.instr(op::MOVL, {Operand::imm(kStackTop), Operand::reg(SP)});
    }

    void
    emitPlainCopy()
    {
        Label next = a.newLabel();
        std::vector<Operand> ops;
        unsigned addr_seq = 0;
        for (unsigned i = 0; i < info.numOperands; ++i) {
            const OperandDef &def = info.operands[i];
            if (def.access == Access::Branch) {
                ops.push_back(Operand::branch(next));
            } else if (i == 0) {
                ops.push_back(variedOperand());
            } else {
                ops.push_back(defaultOperand(i, addr_seq));
                if (def.access == Access::Address)
                    ++addr_seq;
            }
        }
        markTarget();
        a.instr(info.opcode, ops);
        a.label(next);
    }

    /** JMP/JSB destination scaffold: make the varied address operand
     *  resolve to the next copy (JMP) or the shared RSB (JSB), then
     *  emit the measured instruction. */
    void
    emitJumpCopy(uint32_t k)
    {
        Label next = a.newLabel();
        Label dest = h == Harness::JsbJump ? rsb : next;
        auto loadR10 = [&] {
            a.instr(op::MOVL,
                    {Operand::immAddr(dest), Operand::reg(R10)});
        };
        auto loadSlot = [&](uint32_t slot) {
            a.instr(op::MOVL, {Operand::immAddr(dest),
                               Operand::absolute(slot)});
        };
        Operand target = Operand::reg(R10); // overwritten below
        if (vm.indexed) {
            loadR10();
            target = Operand::regDef(R10).idx(R3);
        } else {
            switch (vm.mode) {
              case AddrMode::Absolute:
                target = Operand::absoluteLabel(dest);
                break;
              case AddrMode::RegDeferred:
                loadR10();
                target = Operand::regDef(R10);
                break;
              case AddrMode::AutoInc:
                loadR10();
                target = Operand::autoInc(R10);
                break;
              case AddrMode::AutoIncDef:
                loadSlot(kJumpSlots + 4 * k);
                target = Operand::autoIncDef(R8);
                break;
              case AddrMode::ByteDisp:
                loadR10();
                target = Operand::dispWidth(0, R10, 1);
                break;
              case AddrMode::WordDisp:
                loadR10();
                target = Operand::dispWidth(0, R10, 2);
                break;
              case AddrMode::LongDisp:
                loadR10();
                target = Operand::dispWidth(0, R10, 4);
                break;
              case AddrMode::ByteDispDef:
                loadSlot(kJumpSlots);
                target = Operand::dispDefWidth(0, R8, 1);
                break;
              case AddrMode::WordDispDef:
                loadSlot(kJumpSlots);
                target = Operand::dispDefWidth(0, R8, 2);
                break;
              case AddrMode::LongDispDef:
                loadSlot(kJumpSlots);
                target = Operand::dispDefWidth(0, R8, 4);
                break;
              default:
                fatal("uchar: unreachable jump mode");
            }
        }
        markTarget();
        a.instr(info.opcode, {target});
        a.label(next);
    }

    void
    emitCaseCopy()
    {
        Label next = a.newLabel();
        markTarget();
        a.instr(info.opcode,
                {variedOperand(), Operand::lit(0), Operand::lit(1)});
        a.caseTable({next, next});
        a.label(next);
    }

    void
    emitCallCopy()
    {
        Label entry = a.newLabel();
        markTarget();
        a.instr(info.opcode,
                {variedOperand(), Operand::rel(entry)});
        a.label(entry);
        a.entryMask(0); // execution continues right after the mask
    }

    void
    emitRetCopy()
    {
        Label entry = a.newLabel(), next = a.newLabel();
        a.instr(op::CALLS, {Operand::lit(0), Operand::rel(entry)});
        a.instr(op::BRB, {Operand::branch(next)});
        a.label(entry);
        a.entryMask(0);
        markTarget();
        a.instr(op::RET);
        a.label(next);
    }

    void
    emitReiCopy()
    {
        Label next = a.newLabel();
        a.instr(op::PUSHL, {Operand::imm(0)}); // new PSL: kernel, IPL 0
        a.instr(op::PUSHL, {Operand::immAddr(next)}); // new PC on top
        markTarget();
        a.instr(info.opcode);
        a.label(next);
    }

    void
    emitBsbCopy()
    {
        if (info.flow != ExecFlow::Rsb)
            markTarget();
        uint8_t bsb =
            info.flow == ExecFlow::Rsb ? op::BSBB : info.opcode;
        a.instr(bsb, {Operand::branch(rsb)});
    }

    void
    emitCopy(uint32_t k)
    {
        switch (h) {
          case Harness::Plain:
            emitPlainCopy();
            break;
          case Harness::Jump:
          case Harness::JsbJump:
            emitJumpCopy(k);
            break;
          case Harness::BsbPair:
            emitBsbCopy();
            break;
          case Harness::Case:
            emitCaseCopy();
            break;
          case Harness::CallMask:
            emitCallCopy();
            break;
          case Harness::RetPair:
            emitRetCopy();
            break;
          case Harness::Rei:
            emitReiCopy();
            break;
          case Harness::Skip:
            fatal("uchar: emitCopy on a skipped harness");
        }
    }

    /** Dynamic instructions per copy for the chosen harness/mode. */
    uint32_t
    copyIpc() const
    {
        switch (h) {
          case Harness::Plain:
          case Harness::Case:
          case Harness::CallMask:
            return 1;
          case Harness::BsbPair:
            return 2; // BSBx + RSB
          case Harness::RetPair:
          case Harness::Rei:
            return 3;
          case Harness::Jump:
          case Harness::JsbJump: {
            // Absolute mode needs no scaffold; all others burn one
            // MOVL to plant the destination.  JSB additionally
            // returns through the shared RSB.
            uint32_t scaffold =
                !vm.indexed && vm.mode == AddrMode::Absolute ? 0 : 1;
            uint32_t ret = h == Harness::JsbJump ? 1 : 0;
            return scaffold + 1 + ret;
          }
          case Harness::Skip:
            break;
        }
        fatal("uchar: copyIpc on a skipped harness");
    }

    void
    addPokes(UcharProgram &prog) const
    {
        auto poke = [&](uint32_t addr, std::vector<uint8_t> bytes) {
            prog.pokes.push_back(
                {addr, std::make_shared<const std::vector<uint8_t>>(
                           std::move(bytes))});
        };
        auto longs = [&](uint32_t addr,
                         std::initializer_list<uint32_t> vals) {
            std::vector<uint8_t> img;
            for (uint32_t v : vals)
                for (unsigned b = 0; b < 4; ++b)
                    img.push_back(static_cast<uint8_t>(v >> (8 * b)));
            poke(addr, std::move(img));
        };

        const Bytes &fill = floatRegion ? fills.floatFill : fills.intFill;
        prog.pokes.push_back({floatRegion ? kFloatBase1 : kIntBase1, fill});
        prog.pokes.push_back({floatRegion ? kFloatBase2 : kIntBase2, fill});
        // Deferred-displacement pointer slots, all pointing back at
        // the region midpoint.
        longs(mid + kByteDispDef, {mid});
        longs(mid + kWordDispDef, {mid});
        longs(mid + kLongDispDef, {mid});
        // @(Rn)+ pointer table: one slot per unrolled copy and room
        // to spare.
        {
            std::vector<uint8_t> tab;
            for (unsigned s = 0; s < 16; ++s)
                for (unsigned b = 0; b < 4; ++b)
                    tab.push_back(
                        static_cast<uint8_t>(mid >> (8 * b)));
            poke(ptrTab, std::move(tab));
        }
        if (info.group == Group::Decimal) {
            // P0..P3: the packed number +1 (digit 1, sign C).
            for (unsigned k = 0; k < 4; ++k)
                poke(kPackedBase + kPackedStride * k,
                     std::vector<uint8_t>(8, 0x1C));
        }
        if (info.flow == ExecFlow::InsQue ||
            info.flow == ExecFlow::RemQue) {
            longs(kQueueHead, {kQueueHead, kQueueHead});
        }
        if (info.flow == ExecFlow::RemQue) {
            // Pre-linked entries at every address the non-marching
            // modes resolve to, all self-consistently linked to the
            // header.
            for (uint32_t at : {mid, mid + 8,
                                mid + static_cast<uint32_t>(kWordDisp),
                                mid + static_cast<uint32_t>(kLongDisp)})
                longs(at, {kQueueHead, kQueueHead});
        }
    }

    /** Assemble the full program.  vm/noSpec/h must be set. */
    UcharProgram
    build()
    {
        floatRegion = !noSpec && info.numSpecifiers > 0 &&
            info.operands[0].type == DataType::FFloat;
        mid = floatRegion ? kMidFloat : kMidInt;
        ptrTab = floatRegion ? kPtrTabFloat : kPtrTabInt;
        aux = ptrTab;
        if ((h == Harness::Jump || h == Harness::JsbJump) &&
            !vm.indexed &&
            (vm.mode == AddrMode::AutoIncDef ||
             vm.mode == AddrMode::ByteDispDef ||
             vm.mode == AddrMode::WordDispDef ||
             vm.mode == AddrMode::LongDispDef))
            aux = kJumpSlots;
        needRsb = h == Harness::JsbJump || h == Harness::BsbPair;
        ipc = copyIpc();

        UcharProgram prog;
        prog.op = info.mnemonic;
        prog.ipc = ipc;
        prog.base = kCodeBase;
        prog.sp = kStackTop;

        const uint64_t iters = p.iters;
        a.setInstrHook([this](const OpcodeInfo &ii,
                              std::span<const Operand> ops) {
            recordInstr(ii, ops);
        });

        hookMult = 1;
        a.instr(op::MOVL,
                {Operand::imm(p.iters), Operand::reg(R11)});
        Label loop = a.newLabel(), again = a.newLabel(),
              done = a.newLabel();
        a.label(loop);
        hookMult = iters; // loop body: preamble + copies + SOBGTR
        emitPreamble();
        for (uint32_t k = 0; k < p.unroll; ++k)
            emitCopy(k);
        a.instr(op::SOBGTR, {Operand::reg(R11), Operand::branch(again)});
        hookMult = 1; // fall-through after the final iteration
        a.instr(op::BRB, {Operand::branch(done)});
        a.label(again);
        hookMult = iters - 1; // back-jump on all but the last
        a.instr(op::JMP, {Operand::absoluteLabel(loop)});
        a.label(done);
        hookMult = kHaltRetires;
        a.instr(op::HALT);
        if (needRsb) {
            a.label(rsb);
            if (info.flow == ExecFlow::Rsb)
                markTarget();
            // The shared RSB returns from every BSBx/JSB copy.
            hookMult = iters * p.unroll;
            a.instr(op::RSB);
        }
        prog.image = a.finish();
        prog.image.shrink_to_fit(); // the suite keeps all 2171 images
        prog.targetOffsets = offsets;
        prog.profile = std::move(profile);
        addPokes(prog);

        // 1 counter init + per iteration (7 preamble + body + SOBGTR)
        // + back-JMP on all but the last iteration + BRB + HALT.
        prog.expectedInstructions = 1 +
            iters * (7 + static_cast<uint64_t>(p.unroll) * ipc + 1) +
            (iters - 1) + 1 + kHaltRetires;

        // The profile and the retire-count prediction are derived
        // independently; they must agree exactly or the bound
        // composition would be unsound.
        uint64_t profiled = 0;
        for (const UcharProfileEntry &e : prog.profile)
            profiled += e.count;
        if (profiled != prog.expectedInstructions)
            fatal("uchar: %s/%s instruction profile (%llu) disagrees "
                  "with expected retire count (%llu)",
                  prog.op.c_str(), prog.mode.c_str(),
                  static_cast<unsigned long long>(profiled),
                  static_cast<unsigned long long>(
                      prog.expectedInstructions));
        return prog;
    }
};

bool
filterMatch(const std::string &filter, const char *mnemonic)
{
    if (filter.empty())
        return true;
    std::string item;
    std::istringstream is(filter);
    while (std::getline(is, item, ',')) {
        if (item.size() != std::strlen(mnemonic))
            continue;
        bool eq = true;
        for (size_t i = 0; i < item.size(); ++i)
            if (std::toupper(static_cast<unsigned char>(item[i])) !=
                mnemonic[i])
                eq = false;
        if (eq)
            return true;
    }
    return false;
}

/** Build one variant cell, classifying it as runnable or skipped. */
UcharVariant
makeVariant(const OpcodeInfo &info, const VMode *vm,
            const UcharParams &params, const FillImages &fills)
{
    UcharVariant v;
    v.op = info.mnemonic;
    v.mode = vm ? modeKey(*vm) : "none";

    const char *harness_skip = nullptr;
    Harness h = harnessFor(info, &harness_skip);

    if (vm) {
        const char *illegal =
            modeIllegalReason(*vm, info.operands[0].access);
        if (illegal) {
            v.skipReason = illegal;
            return v;
        }
    }
    if (h == Harness::Skip) {
        v.skipReason = harness_skip;
        return v;
    }
    if ((h == Harness::Jump || h == Harness::JsbJump) && vm &&
        !vm->indexed && vm->mode == AddrMode::AutoDec) {
        v.skipReason =
            "no deterministic autodecrement destination scaffold";
        return v;
    }
    if (info.flow == ExecFlow::RemQue && vm && !vm->indexed &&
        (vm->mode == AddrMode::AutoInc ||
         vm->mode == AddrMode::AutoDec)) {
        v.skipReason =
            "autoincrement cannot walk pre-linked queue entries";
        return v;
    }

    Builder b(info, params, fills);
    if (vm)
        b.vm = *vm;
    b.noSpec = vm == nullptr;
    b.h = h;
    v.prog = b.build();
    v.prog.mode = v.mode;
    v.runnable = true;
    return v;
}

} // anonymous namespace

std::vector<UcharVariant>
ucharEnumerate(const UcharParams &params, const UcharSuiteOptions &opts)
{
    const FillImages fills;
    std::vector<UcharVariant> out;
    for (unsigned opc = 0; opc < 256; ++opc) {
        const OpcodeInfo &info = opcodeInfo(static_cast<uint8_t>(opc));
        if (!info.valid)
            continue;
        if (!filterMatch(opts.opcodeFilter, info.mnemonic))
            continue;
        if (info.numSpecifiers == 0) {
            out.push_back(makeVariant(info, nullptr, params, fills));
            continue;
        }
        for (const VMode &vm : kModes)
            out.push_back(makeVariant(info, &vm, params, fills));
    }
    return out;
}

UcharProgram
ucharCalibration(const UcharParams &params)
{
    UcharParams p = params;
    p.unroll = 0;
    const OpcodeInfo &nop = opcodeInfo(op::NOP);
    const FillImages fills;
    Builder b(nop, p, fills);
    b.noSpec = true;
    b.h = Harness::Plain;
    UcharProgram prog = b.build();
    prog.op = "(calibration)";
    prog.mode = "empty";
    prog.ipc = 0;
    prog.targetOffsets.clear();
    return prog;
}

UcharReport
runUcharSuite(const UcharParams &params, const ParallelFor &pf,
              const UcharSuiteOptions &opts)
{
    UcharReport rep;
    rep.params = params;

    UcharProgram calib = ucharCalibration(params);
    UcharOutcome co = runUcharProgram(calib, params);
    if (!co.ok)
        fatal("ucharacterize: calibration loop failed: %s",
              co.reason.c_str());
    rep.calibration = co.run;

    std::vector<UcharVariant> variants = ucharEnumerate(params, opts);
    std::vector<UcharOutcome> outcomes(variants.size());
    auto work = [&](size_t i) {
        if (variants[i].runnable)
            outcomes[i] = runUcharProgram(variants[i].prog, params);
    };
    if (pf)
        pf(variants.size(), work);
    else
        for (size_t i = 0; i < variants.size(); ++i)
            work(i);

    for (size_t i = 0; i < variants.size(); ++i) {
        const UcharVariant &v = variants[i];
        if (v.runnable && outcomes[i].ok) {
            rep.rows.push_back(
                {v.op, v.mode, v.prog.ipc, outcomes[i].run});
        } else {
            rep.skipped.push_back(
                {v.op, v.mode,
                 v.runnable ? outcomes[i].reason : v.skipReason});
        }
    }
    return rep;
}

} // namespace vax

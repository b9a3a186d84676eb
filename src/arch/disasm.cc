#include "arch/disasm.hh"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "support/bitutil.hh"

namespace vax
{

namespace
{

const char *regNames[16] = {
    "R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7",
    "R8", "R9", "R10", "R11", "AP", "FP", "SP", "PC",
};

/** Little-endian value of the n <= 8 bytes at addr (quad immediates
 *  carry eight). */
uint64_t
readN(VirtAddr addr, unsigned n, const ByteReader &read)
{
    uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i)
        v |= static_cast<uint64_t>(read(addr + i)) << (8 * i);
    return v;
}

std::string
fmt(const char *f, ...)
{
    char buf[128];
    va_list args;
    va_start(args, f);
    std::vsnprintf(buf, sizeof(buf), f, args);
    va_end(args);
    return buf;
}

/** Render one specifier; advances addr past it. */
std::string
renderSpecifier(VirtAddr &addr, DataType type, const ByteReader &read)
{
    uint8_t b = read(addr++);
    std::string prefix;
    if (isIndexPrefix(b)) {
        prefix = fmt("[%s]", regNames[b & 0xF]);
        b = read(addr++);
    }
    SpecByte sb = decodeSpecByte(b);
    unsigned trail = specTrailingBytes(sb.mode, type);
    uint64_t wide = trail ? readN(addr, trail, read) : 0;
    uint32_t extra = static_cast<uint32_t>(wide);
    addr += trail;

    std::string body;
    switch (sb.mode) {
      case AddrMode::ShortLiteral:
        body = fmt("S^#%u", sb.literal);
        break;
      case AddrMode::Register:
        body = regNames[sb.reg];
        break;
      case AddrMode::RegDeferred:
        body = fmt("(%s)", regNames[sb.reg]);
        break;
      case AddrMode::AutoDec:
        body = fmt("-(%s)", regNames[sb.reg]);
        break;
      case AddrMode::AutoInc:
        body = fmt("(%s)+", regNames[sb.reg]);
        break;
      case AddrMode::Immediate:
        body = fmt("I^#%#" PRIx64, wide);
        break;
      case AddrMode::AutoIncDef:
        body = fmt("@(%s)+", regNames[sb.reg]);
        break;
      case AddrMode::Absolute:
        body = fmt("@#%#x", extra);
        break;
      case AddrMode::ByteDisp:
        body = fmt("B^%d(%s)", sext(extra, 8), regNames[sb.reg]);
        break;
      case AddrMode::ByteDispDef:
        body = fmt("@B^%d(%s)", sext(extra, 8), regNames[sb.reg]);
        break;
      case AddrMode::WordDisp:
        body = fmt("W^%d(%s)", sext(extra, 16), regNames[sb.reg]);
        break;
      case AddrMode::WordDispDef:
        body = fmt("@W^%d(%s)", sext(extra, 16), regNames[sb.reg]);
        break;
      case AddrMode::LongDisp:
        body = fmt("L^%d(%s)", static_cast<int32_t>(extra),
                   regNames[sb.reg]);
        break;
      case AddrMode::LongDispDef:
        body = fmt("@L^%d(%s)", static_cast<int32_t>(extra),
                   regNames[sb.reg]);
        break;
      default:
        body = "?";
        break;
    }
    return body + prefix;
}

} // anonymous namespace

DisasmResult
disassemble(VirtAddr addr, const ByteReader &read)
{
    DisasmResult out;
    VirtAddr start = addr;
    uint8_t opc = read(addr++);
    const OpcodeInfo &info = opcodeInfo(opc);
    if (!info.valid) {
        out.text = fmt(".byte %#x", opc);
        out.length = 1;
        return out;
    }
    out.valid = true;
    out.text = info.mnemonic;
    for (unsigned i = 0; i < info.numOperands; ++i) {
        const OperandDef &od = info.operands[i];
        out.text += i == 0 ? " " : ", ";
        if (od.access == Access::Branch) {
            unsigned n = dataTypeBytes(od.type);
            uint32_t raw = static_cast<uint32_t>(readN(addr, n, read));
            addr += n;
            int32_t d = sext(raw, 8 * n);
            out.text += fmt("%#x", addr + d);
        } else {
            out.text += renderSpecifier(addr, od.type, read);
        }
    }
    out.length = addr - start;
    return out;
}

} // namespace vax

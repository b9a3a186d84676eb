#include "arch/assembler.hh"

#include "support/bitutil.hh"
#include "support/logging.hh"

namespace vax
{

Operand
Operand::lit(uint8_t value)
{
    upc_assert(value < 64);
    Operand o;
    o.kind_ = Kind::Literal;
    o.value_ = value;
    return o;
}

Operand
Operand::reg(uint8_t r)
{
    upc_assert(r < NumGpr && r != PC);
    Operand o;
    o.kind_ = Kind::Register;
    o.reg_ = r;
    return o;
}

Operand
Operand::regDef(uint8_t r)
{
    upc_assert(r < NumGpr && r != PC);
    Operand o;
    o.kind_ = Kind::RegDeferred;
    o.reg_ = r;
    return o;
}

Operand
Operand::autoInc(uint8_t r)
{
    upc_assert(r < NumGpr && r != PC);
    Operand o;
    o.kind_ = Kind::AutoInc;
    o.reg_ = r;
    return o;
}

Operand
Operand::autoDec(uint8_t r)
{
    upc_assert(r < NumGpr && r != PC);
    Operand o;
    o.kind_ = Kind::AutoDec;
    o.reg_ = r;
    return o;
}

Operand
Operand::autoIncDef(uint8_t r)
{
    upc_assert(r < NumGpr && r != PC);
    Operand o;
    o.kind_ = Kind::AutoIncDef;
    o.reg_ = r;
    return o;
}

Operand
Operand::disp(int32_t d, uint8_t r)
{
    upc_assert(r < NumGpr && r != PC);
    Operand o;
    o.kind_ = Kind::Disp;
    o.reg_ = r;
    o.value_ = d;
    return o;
}

Operand
Operand::dispDef(int32_t d, uint8_t r)
{
    upc_assert(r < NumGpr && r != PC);
    Operand o;
    o.kind_ = Kind::DispDef;
    o.reg_ = r;
    o.value_ = d;
    return o;
}

Operand
Operand::dispWidth(int32_t d, uint8_t r, unsigned bytes)
{
    upc_assert(r < NumGpr && r != PC);
    if (!((bytes == 1 && d >= -128 && d <= 127) ||
          (bytes == 2 && d >= -32768 && d <= 32767) || bytes == 4))
        fatal("assembler: displacement %d does not fit %u byte(s)", d,
              bytes);
    Operand o;
    o.kind_ = Kind::Disp;
    o.reg_ = r;
    o.value_ = d;
    o.dispBytes_ = static_cast<uint8_t>(bytes);
    return o;
}

Operand
Operand::dispDefWidth(int32_t d, uint8_t r, unsigned bytes)
{
    Operand o = dispWidth(d, r, bytes);
    o.kind_ = Kind::DispDef;
    return o;
}

Operand
Operand::imm(uint32_t value)
{
    Operand o;
    o.kind_ = Kind::Immediate;
    o.value_ = static_cast<int32_t>(value);
    return o;
}

Operand
Operand::labelRef(Kind kind, LabelRef label)
{
    Operand o;
    o.kind_ = kind;
    o.label_ = std::move(label);
    return o;
}

Operand
Operand::immAddr(LabelRef label)
{
    return labelRef(Kind::ImmediateLabel, std::move(label));
}

Operand
Operand::absolute(uint32_t address)
{
    Operand o;
    o.kind_ = Kind::Absolute;
    o.value_ = static_cast<int32_t>(address);
    return o;
}

Operand
Operand::absoluteLabel(LabelRef label)
{
    return labelRef(Kind::AbsoluteLabel, std::move(label));
}

Operand
Operand::rel(LabelRef label)
{
    return labelRef(Kind::RelLabel, std::move(label));
}

Operand
Operand::relDef(LabelRef label)
{
    return labelRef(Kind::RelDefLabel, std::move(label));
}

Operand
Operand::branch(LabelRef label)
{
    return labelRef(Kind::BranchLabel, std::move(label));
}

Operand
Operand::idx(uint8_t rx) const
{
    upc_assert(rx < NumGpr && rx != PC);
    upc_assert(kind_ != Kind::Literal && kind_ != Kind::Register &&
               kind_ != Kind::Immediate && kind_ != Kind::BranchLabel);
    Operand o = *this;
    o.indexed_ = true;
    o.indexReg_ = rx;
    return o;
}

AddrMode
Operand::specMode() const
{
    switch (kind_) {
      case Kind::Literal:        return AddrMode::ShortLiteral;
      case Kind::Register:       return AddrMode::Register;
      case Kind::RegDeferred:    return AddrMode::RegDeferred;
      case Kind::AutoInc:        return AddrMode::AutoInc;
      case Kind::AutoDec:        return AddrMode::AutoDec;
      case Kind::AutoIncDef:     return AddrMode::AutoIncDef;
      case Kind::Immediate:
      case Kind::ImmediateLabel: return AddrMode::Immediate;
      case Kind::Absolute:
      case Kind::AbsoluteLabel:  return AddrMode::Absolute;
      case Kind::Disp:
      case Kind::DispDef: {
        bool deferred = kind_ == Kind::DispDef;
        unsigned forced = dispBytes_;
        if (forced == 1 || (!forced && value_ >= -128 && value_ <= 127))
            return deferred ? AddrMode::ByteDispDef
                            : AddrMode::ByteDisp;
        if (forced == 2 ||
            (!forced && value_ >= -32768 && value_ <= 32767))
            return deferred ? AddrMode::WordDispDef
                            : AddrMode::WordDisp;
        return deferred ? AddrMode::LongDispDef : AddrMode::LongDisp;
      }
      case Kind::RelLabel:       return AddrMode::WordDisp;
      case Kind::RelDefLabel:    return AddrMode::WordDispDef;
      case Kind::BranchLabel:    break;
    }
    fatal("assembler: branch operand has no addressing mode");
}

Assembler::Assembler(VirtAddr base)
    : base_(base)
{
}

Label
Assembler::newLabel()
{
    labels_.emplace_back();
    return Label{static_cast<uint32_t>(labels_.size() - 1)};
}

Label
Assembler::labelId(const std::string &name)
{
    auto [it, inserted] =
        ids_.try_emplace(name, static_cast<uint32_t>(labels_.size()));
    if (inserted)
        labels_.emplace_back();
    return Label{it->second};
}

std::string
Assembler::labelName(uint32_t id) const
{
    // Cold: only error messages need a label's name back.
    for (const auto &[name, named] : ids_)
        if (named == id)
            return name;
    return "#" + std::to_string(id);
}

const Assembler::LabelSlot &
Assembler::slot(uint32_t id) const
{
    upc_assert(id < labels_.size()); // a Label of another assembler?
    return labels_[id];
}

uint32_t
Assembler::resolve(const LabelRef &l)
{
    return l.name_.empty() ? l.id_.id : labelId(l.name_).id;
}

void
Assembler::label(LabelRef l)
{
    uint32_t id = resolve(l);
    if (slot(id).placed)
        fatal("assembler: duplicate label '%s'", labelName(id).c_str());
    labels_[id] = {here(), true};
}

VirtAddr
Assembler::placedAddr(uint32_t id) const
{
    const LabelSlot &s = slot(id);
    if (!s.placed)
        fatal("assembler: undefined label '%s'", labelName(id).c_str());
    return s.addr;
}

VirtAddr
Assembler::addrOf(const LabelRef &l) const
{
    if (l.name_.empty())
        return placedAddr(l.id_.id);
    auto it = ids_.find(l.name_);
    if (it == ids_.end())
        fatal("assembler: undefined label '%s'", l.name_.c_str());
    return placedAddr(it->second);
}

bool
Assembler::hasLabel(const std::string &name) const
{
    auto it = ids_.find(name);
    return it != ids_.end() && labels_[it->second].placed;
}

void
Assembler::ascii(const std::string &s)
{
    image_.insert(image_.end(), s.begin(), s.end());
}

void
Assembler::space(unsigned n, uint8_t fill)
{
    image_.insert(image_.end(), n, fill);
}

void
Assembler::align(unsigned a)
{
    upc_assert(isPowerOf2(a));
    while (here() % a)
        image_.push_back(0);
}

void
Assembler::fixup(FixKind kind, uint32_t label, unsigned bytes,
                 VirtAddr origin)
{
    fixups_.push_back(
        {kind, label, static_cast<uint32_t>(image_.size()), origin});
    putBytes(0, bytes);
}

void
Assembler::addrLong(LabelRef l)
{
    fixup(FixKind::AbsLong, resolve(l), 4, 0);
}

void
Assembler::caseTable(std::initializer_list<LabelRef> targets)
{
    VirtAddr table_base = here();
    for (const LabelRef &t : targets)
        fixup(FixKind::CaseWord, resolve(t), 2, table_base);
}

void
Assembler::entryMask(uint16_t mask)
{
    word(mask);
}

void
Assembler::emitOperand(const Operand &op, const OperandDef &def)
{
    using K = Operand::Kind;

    if (def.access == Access::Branch) {
        if (op.kind_ != K::BranchLabel)
            fatal("assembler: branch operand must be a branch label");
        unsigned n = dataTypeBytes(def.type);
        fixup(n == 1 ? FixKind::BranchByte : FixKind::BranchWord,
              resolve(op.label_), n, here() + n);
        return;
    }

    if (op.kind_ == K::BranchLabel)
        fatal("assembler: branch label used as a general operand");

    if (op.indexed_)
        image_.push_back(static_cast<uint8_t>(0x40 | op.indexReg_));

    switch (op.kind_) {
      case K::Literal:
        if (def.access != Access::Read)
            fatal("assembler: literal with non-read access");
        image_.push_back(static_cast<uint8_t>(op.value_ & 0x3F));
        break;
      case K::Register:
        image_.push_back(static_cast<uint8_t>(0x50 | op.reg_));
        break;
      case K::RegDeferred:
        image_.push_back(static_cast<uint8_t>(0x60 | op.reg_));
        break;
      case K::AutoDec:
        image_.push_back(static_cast<uint8_t>(0x70 | op.reg_));
        break;
      case K::AutoInc:
        image_.push_back(static_cast<uint8_t>(0x80 | op.reg_));
        break;
      case K::AutoIncDef:
        image_.push_back(static_cast<uint8_t>(0x90 | op.reg_));
        break;
      case K::Immediate:
        if (def.access != Access::Read)
            fatal("assembler: immediate with non-read access");
        image_.push_back(0x8F);
        putBytes(static_cast<uint32_t>(op.value_),
                 dataTypeBytes(def.type));
        break;
      case K::ImmediateLabel:
        if (def.access != Access::Read ||
            dataTypeBytes(def.type) != 4)
            fatal("assembler: immAddr needs a longword read operand");
        image_.push_back(0x8F);
        fixup(FixKind::AbsLong, resolve(op.label_), 4, 0);
        break;
      case K::Absolute:
        image_.push_back(0x9F);
        putBytes(static_cast<uint32_t>(op.value_), 4);
        break;
      case K::AbsoluteLabel:
        image_.push_back(0x9F);
        fixup(FixKind::AbsLong, resolve(op.label_), 4, 0);
        break;
      case K::Disp:
      case K::DispDef: {
        bool deferred = op.kind_ == K::DispDef;
        int32_t d = op.value_;
        unsigned forced = op.dispBytes_;
        if (forced == 1 || (!forced && d >= -128 && d <= 127)) {
            image_.push_back(
                static_cast<uint8_t>((deferred ? 0xB0 : 0xA0) | op.reg_));
            putBytes(static_cast<uint32_t>(d), 1);
        } else if (forced == 2 ||
                   (!forced && d >= -32768 && d <= 32767)) {
            image_.push_back(
                static_cast<uint8_t>((deferred ? 0xD0 : 0xC0) | op.reg_));
            putBytes(static_cast<uint32_t>(d), 2);
        } else {
            image_.push_back(
                static_cast<uint8_t>((deferred ? 0xF0 : 0xE0) | op.reg_));
            putBytes(static_cast<uint32_t>(d), 4);
        }
        break;
      }
      case K::RelLabel:
      case K::RelDefLabel: {
        bool deferred = op.kind_ == K::RelDefLabel;
        // Word-displacement PC-relative form.
        image_.push_back(static_cast<uint8_t>((deferred ? 0xD0 : 0xC0) | PC));
        fixup(FixKind::RelWord, resolve(op.label_), 2, here() + 2);
        break;
      }
      case K::BranchLabel:
        break; // handled above
    }
}

void
Assembler::instr(uint8_t opcode, std::span<const Operand> ops)
{
    const OpcodeInfo &info = opcodeInfo(opcode);
    if (!info.valid)
        fatal("assembler: opcode %#x not implemented", opcode);
    if (ops.size() != info.numOperands)
        fatal("assembler: %s expects %u operands, got %zu",
              info.mnemonic, info.numOperands, ops.size());
    if (instrHook_)
        instrHook_(info, ops);
    image_.push_back(opcode);
    for (unsigned i = 0; i < info.numOperands; ++i)
        emitOperand(ops[i], info.operands[i]);
}

std::vector<uint8_t>
Assembler::finish()
{
    upc_assert(!finished_);
    finished_ = true;
    for (const Fixup &f : fixups_) {
        VirtAddr target = placedAddr(f.label);
        int64_t value = static_cast<int64_t>(target) - f.origin;
        uint8_t *field = image_.data() + f.offset;
        switch (f.kind) {
          case FixKind::BranchByte:
            if (value < -128 || value > 127)
                fatal("assembler: byte branch to '%s' out of range (%lld)",
                      labelName(f.label).c_str(),
                      static_cast<long long>(value));
            field[0] = static_cast<uint8_t>(value);
            break;
          case FixKind::BranchWord:
          case FixKind::RelWord:
          case FixKind::CaseWord:
            if (value < -32768 || value > 32767)
                fatal("assembler: %s displacement to '%s' out of range",
                      f.kind == FixKind::CaseWord ? "case" : "word",
                      labelName(f.label).c_str());
            field[0] = static_cast<uint8_t>(value);
            field[1] = static_cast<uint8_t>(value >> 8);
            break;
          case FixKind::AbsLong:
            for (unsigned i = 0; i < 4; ++i)
                field[i] = static_cast<uint8_t>(target >> (8 * i));
            break;
        }
    }
    return std::move(image_);
}

} // namespace vax

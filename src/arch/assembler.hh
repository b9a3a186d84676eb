/**
 * @file
 * A programmatic VAX assembler.
 *
 * Builds machine-code images for the simulator: the workload
 * generator, the OS image builder, the examples and the tests all
 * assemble through this interface.  Labels are resolved in finish();
 * displacement-size violations are user (generator) errors and fatal.
 *
 * Labels are integer ids private to one assembler.  Generators that
 * build many images make anonymous ids with newLabel(); string names
 * are a thin front that interns each name to an id on first use, so
 * hand-written code (the kernel, the corpus, tests) reads naturally.
 * Nothing is shared between assemblers, so threads may each build
 * their own image concurrently.
 */

#ifndef UPC780_ARCH_ASSEMBLER_HH
#define UPC780_ARCH_ASSEMBLER_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "arch/types.hh"

namespace vax
{

/**
 * A label of one Assembler: an index into that assembler's label
 * table, made by Assembler::newLabel() or Assembler::labelId().  It
 * means nothing to any other assembler.
 */
struct Label
{
    uint32_t id = UINT32_MAX;
};

/**
 * A label named by id or by string: everything that refers to a
 * label takes either.  The assembler that resolves a name interns it
 * to an id on first use.
 */
class LabelRef
{
  public:
    LabelRef(Label id) : id_(id) {}
    LabelRef(std::string name) : name_(std::move(name)) {}
    LabelRef(const char *name) : name_(name) {}

  private:
    friend class Assembler;
    Label id_;
    std::string name_; ///< the label's name; empty when named by id_
};

/**
 * One operand of an instruction being assembled.
 *
 * Construct through the static factories; apply idx() to add an index
 * prefix to a memory-mode operand.
 */
class Operand
{
  public:
    /** Short literal 0..63 (modes 0-3). */
    static Operand lit(uint8_t value);
    /** Register direct. */
    static Operand reg(uint8_t r);
    /** Register deferred (Rn). */
    static Operand regDef(uint8_t r);
    /** Autoincrement (Rn)+. */
    static Operand autoInc(uint8_t r);
    /** Autodecrement -(Rn). */
    static Operand autoDec(uint8_t r);
    /** Autoincrement deferred @(Rn)+. */
    static Operand autoIncDef(uint8_t r);
    /** Displacement d(Rn); smallest of byte/word/long chosen. */
    static Operand disp(int32_t d, uint8_t r);
    /** Displacement deferred @d(Rn). */
    static Operand dispDef(int32_t d, uint8_t r);
    /**
     * Displacement d(Rn) with a forced field width of 1, 2 or 4
     * bytes (out-of-range d is fatal).  The auto-sizing disp() never
     * emits, say, w^0(Rn); generators that must exercise a specific
     * displacement mode -- the per-opcode characterization corpus --
     * need the width pinned.
     */
    static Operand dispWidth(int32_t d, uint8_t r, unsigned bytes);
    /** Displacement deferred @d(Rn) with a forced field width. */
    static Operand dispDefWidth(int32_t d, uint8_t r, unsigned bytes);
    /** Immediate I^#value ((PC)+); size follows the operand type. */
    static Operand imm(uint32_t value);
    /** Immediate whose value is the address of a label (long only). */
    static Operand immAddr(LabelRef label);
    /** Absolute @#address. */
    static Operand absolute(uint32_t address);
    /** Absolute @#address whose value is the address of a label. */
    static Operand absoluteLabel(LabelRef label);
    /** PC-relative reference to a label (word displacement). */
    static Operand rel(LabelRef label);
    /** PC-relative deferred reference to a label. */
    static Operand relDef(LabelRef label);
    /** Branch displacement to a label (for 'b' operands only). */
    static Operand branch(LabelRef label);

    /** Return a copy of this operand with an index register prefix. */
    Operand idx(uint8_t rx) const;

    /** @{
     * Static introspection for instruction-profile consumers: the
     * characterization corpus records every emitted instruction's
     * specifier shape so the static bound analyzer (ubound) can
     * compose per-opcode cycle bounds without re-decoding the image.
     */
    /** True for branch-displacement operands (not specifiers). */
    bool isBranch() const { return kind_ == Kind::BranchLabel; }
    /** True when an index-prefix byte precedes the specifier. */
    bool isIndexed() const { return indexed_; }
    /**
     * Addressing mode this operand encodes to, mirroring the
     * emission rules exactly (auto-sized displacements included).
     * Fatal for branch operands, which have no specifier byte.
     */
    AddrMode specMode() const;
    /** @} */

  private:
    friend class Assembler;
    Operand() = default;

    enum class Kind : uint8_t {
        Literal, Register, RegDeferred, AutoInc, AutoDec, AutoIncDef,
        Disp, DispDef, Immediate, ImmediateLabel, Absolute,
        AbsoluteLabel, RelLabel, RelDefLabel, BranchLabel,
    };

    static Operand labelRef(Kind kind, LabelRef label);

    Kind kind_ = Kind::Register;
    uint8_t reg_ = 0;
    uint8_t dispBytes_ = 0;    ///< forced disp width; 0 = auto-size
    bool indexed_ = false;
    uint8_t indexReg_ = 0;
    int32_t value_ = 0;        ///< literal / displacement / immediate
    LabelRef label_{Label{}};  ///< for the label-reference kinds
};

/**
 * Assembles instructions and data into a contiguous image at a base
 * virtual address.
 */
class Assembler
{
  public:
    explicit Assembler(VirtAddr base);

    /** @{ Labels. */
    /** A new anonymous label, to be placed later with label(). */
    Label newLabel();
    /** The label with this name, created unplaced on first use. */
    Label labelId(const std::string &name);
    /** Place a label at the current location (fatal if placed twice). */
    void label(LabelRef l);
    /** Address of a placed label (fatal if unplaced); valid anytime. */
    VirtAddr addrOf(const LabelRef &l) const;
    /** True if the named label has been placed. */
    bool hasLabel(const std::string &name) const;
    /** @} */

    /** Current location counter (virtual address). */
    VirtAddr here() const { return base_ + image_.size(); }

    /** Base virtual address of the image. */
    VirtAddr base() const { return base_; }

    /** Expect an image of about this many bytes (saves regrowth). */
    void reserve(size_t bytes) { image_.reserve(bytes); }

    /**
     * Assemble one instruction.
     *
     * The operand list must match the opcode's signature (count and
     * branch-displacement position); mismatches are fatal.
     */
    void
    instr(uint8_t opcode, std::initializer_list<Operand> ops = {})
    {
        instr(opcode, std::span<const Operand>(ops.begin(), ops.size()));
    }
    void instr(uint8_t opcode, std::span<const Operand> ops);

    /** @{ Raw data emission, little-endian. */
    void byte(uint8_t v) { image_.push_back(v); }
    void word(uint16_t v) { putBytes(v, 2); }
    void lword(uint32_t v) { putBytes(v, 4); }
    void ascii(const std::string &s);
    void space(unsigned n, uint8_t fill = 0);
    void align(unsigned a);
    /** Append n zero bytes for the caller to fill in place (bulk
     *  data); the pointer is good until the next emission. */
    uint8_t *
    extend(size_t n)
    {
        size_t at = image_.size();
        image_.resize(at + n);
        return image_.data() + at;
    }
    /** @} */

    /** Emit a longword holding the address of a label (abs fixup). */
    void addrLong(LabelRef label);

    /**
     * Emit a CASEx displacement table.
     *
     * Word displacements relative to the table start, one per target
     * label, as the CASE instruction expects.
     */
    void caseTable(std::initializer_list<LabelRef> targets);

    /** Entry mask longword-pair for CALLS targets: emit a 16-bit mask. */
    void entryMask(uint16_t mask);

    /**
     * Resolve fixups and hand the image over (moved, not copied).
     * Call exactly once; labels stay readable through addrOf().
     */
    std::vector<uint8_t> finish();

    /**
     * Observer called once per assembled instruction (after the
     * opcode/operand validation, before emission) with the opcode's
     * metadata and the operand list.  The characterization corpus
     * uses it to build an exact static instruction profile of the
     * image it emits.
     */
    using InstrHook =
        std::function<void(const OpcodeInfo &, std::span<const Operand>)>;
    void setInstrHook(InstrHook hook) { instrHook_ = std::move(hook); }

  private:
    enum class FixKind : uint8_t {
        BranchByte,   ///< 1-byte branch displacement
        BranchWord,   ///< 2-byte branch displacement
        RelWord,      ///< word displacement off PC in a specifier
        AbsLong,      ///< 32-bit absolute address
        CaseWord,     ///< word offset from a case-table base
    };

    struct Fixup
    {
        FixKind kind;
        uint32_t label;   ///< label id
        uint32_t offset;  ///< where the field lives in the image
        VirtAddr origin;  ///< displacements count from here: the
                          ///< address after the field, or the table
    };

    struct LabelSlot
    {
        VirtAddr addr = 0;
        bool placed = false;
    };

    void
    putBytes(uint64_t v, unsigned n)
    {
        uint8_t *p = extend(n);
        for (unsigned i = 0; i < n; ++i)
            p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    void fixup(FixKind kind, uint32_t label, unsigned bytes,
               VirtAddr origin);
    uint32_t resolve(const LabelRef &l);
    const LabelSlot &slot(uint32_t id) const;
    VirtAddr placedAddr(uint32_t id) const;
    std::string labelName(uint32_t id) const;
    void emitOperand(const Operand &op, const OperandDef &def);

    VirtAddr base_;
    InstrHook instrHook_;
    std::vector<uint8_t> image_;
    std::vector<LabelSlot> labels_;                  ///< by label id
    std::unordered_map<std::string, uint32_t> ids_; ///< named labels
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace vax

#endif // UPC780_ARCH_ASSEMBLER_HH

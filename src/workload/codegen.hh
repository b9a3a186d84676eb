/**
 * @file
 * Synthetic VAX program generator.
 *
 * Emits runnable user programs whose instruction mix, addressing-mode
 * mix, loop geometry, call behaviour and data locality follow a
 * WorkloadProfile.  Programs run forever: an outer iteration of
 * activity blocks, optional system services, an optional wait for
 * terminal input, and a branch back.
 *
 * Register conventions of generated code:
 *   R0-R5  volatile (string instructions and CHMK services clobber)
 *   R6, R7 accumulator / value registers
 *   R8, R9 hot / cold data-region base pointers (never changed)
 *   R10    loop counter (loops are self-contained)
 *   R11    index register (kept in [0,7] for indexed modes)
 */

#ifndef UPC780_WORKLOAD_CODEGEN_HH
#define UPC780_WORKLOAD_CODEGEN_HH

#include <vector>

#include "arch/assembler.hh"
#include "os/vms.hh"
#include "support/random.hh"
#include "workload/profile.hh"

namespace vax
{

class CodeGenerator
{
  public:
    /**
     * @param profile The workload profile to follow.
     * @param seed    Per-program seed (each user gets its own).
     */
    CodeGenerator(const WorkloadProfile &profile, uint64_t seed);

    /** Generate one user program bound to the given terminal. */
    UserProgram generate(unsigned terminal_id);

    /**
     * The entry point of every program generate() emits for profile:
     * the code starts right after the data regions, whose layout
     * depends on the profile alone, not on the seed.
     */
    static VirtAddr entryPoint(const WorkloadProfile &profile);

  private:
    // Block emitters (see BlockKind).
    void emitBlock(BlockKind k, bool top_level);
    void emitMove(bool top_level);
    void emitArith();
    void emitBoolean();
    void emitCondBranch();
    void emitLoop();
    void emitSubroutineCall();
    void emitProcCall();
    void emitField();
    void emitFloat();
    void emitCharacter();
    void emitDecimal();
    void emitCase();
    void emitQueue();
    void emitSyscall();

    void emitFiller(unsigned n);
    void emitLoopBody(unsigned n);
    void emitLoopFlavor();

    // Operand construction.
    Operand readOperand(DataType t, bool mem_biased = false);
    Operand writeOperand(DataType t);
    Operand memOperand(DataType t, bool write);
    uint32_t dataOffset(unsigned region_longs, unsigned size_bytes);

    // Data and code pools.
    void emitDataRegions();
    void emitSubroutines();
    void emitProcedures();

    Operand dataOperand(uint32_t addr);

    const WorkloadProfile &prof_;
    Rng rng_;
    Assembler a_{0};

    // Data objects, addressed as they are emitted (data precedes code).
    uint32_t hotVa_ = 0;     ///< VA of the hot region
    uint32_t coldVa_ = 0;    ///< VA of the cold region
    uint32_t fdatOff_ = 0;   ///< offset of the float pool off R8
    uint32_t ptrtabOff_ = 0; ///< offset of the pointer table off R8
    uint32_t qhdrVa_ = 0;
    uint32_t qentVa_[6] = {};
    uint32_t strVa_[3] = {};
    uint32_t charTabVa_ = 0;
    uint32_t pkVa_[6] = {};
    uint32_t ioBufVa_ = 0;

    // Code labels that calls reach before their targets are emitted.
    Label leaf_[3];
    std::vector<Label> sub_;
    std::vector<Label> proc_;

    unsigned curSub_ = 0;    ///< index while emitting subroutines
    bool inSub_ = false;
    BlockKind lastKind_ = BlockKind::NumKinds;
};

} // namespace vax

#endif // UPC780_WORKLOAD_CODEGEN_HH

"""Shared datapath components for the target cores.

Instruction-field extraction and control decode (as expression
builders), the ALU, the 3-stage pipelined multiplier (designer-annotated
as *retimed*, standing in for the paper's FPU retiming case), and the
iterative restoring divider.
"""

from __future__ import annotations

from ..hdl import Module, mux, cat, const
from ..hdl.ir import Node, lift
from ..isa import encoding as enc

XLEN = 32


def decode_fields(inst):
    """Extract the standard RISC-V fields from a 32-bit instruction."""
    return {
        "opcode": inst[6:0],
        "rd": inst[11:7],
        "funct3": inst[14:12],
        "rs1": inst[19:15],
        "rs2": inst[24:20],
        "funct7": inst[31:25],
    }


def imm_i(inst):
    return inst[31:20].sext(XLEN)


def imm_s(inst):
    return cat(inst[31:25], inst[11:7]).sext(XLEN)


def imm_b(inst):
    return cat(inst[31], inst[7], inst[30:25], inst[11:8],
               const(0, 1)).sext(XLEN)


def imm_u(inst):
    return cat(inst[31:12], const(0, 12))


def imm_j(inst):
    return cat(inst[31], inst[19:12], inst[20], inst[30:21],
               const(0, 1)).sext(XLEN)


def select_immediate(inst, fields):
    """Format-correct immediate for every opcode."""
    opcode = fields["opcode"]
    imm = imm_i(inst)
    imm = mux(opcode.eq(enc.OP_STORE), imm_s(inst), imm)
    imm = mux(opcode.eq(enc.OP_BRANCH), imm_b(inst), imm)
    imm = mux(opcode.eq(enc.OP_LUI) | opcode.eq(enc.OP_AUIPC),
              imm_u(inst), imm)
    imm = mux(opcode.eq(enc.OP_JAL), imm_j(inst), imm)
    return imm


def alu(op_funct3, alt, a, b):
    """The base-ISA ALU; ``alt`` selects sub/sra.

    Returns a 32-bit result.  ``op_funct3`` follows the OP/OP-IMM
    funct3 encoding.
    """
    shamt = b[4:0]
    add_sub = mux(alt, (a - b).trunc(XLEN), (a + b).trunc(XLEN))
    shift_r = mux(alt, a.sra(shamt), a >> shamt)
    result = add_sub
    result = mux(op_funct3.eq(0b001), (a << shamt).trunc(XLEN), result)
    result = mux(op_funct3.eq(0b010), a.slt(b).pad(XLEN), result)
    result = mux(op_funct3.eq(0b011), a.ult(b).pad(XLEN), result)
    result = mux(op_funct3.eq(0b100), a ^ b, result)
    result = mux(op_funct3.eq(0b101), shift_r, result)
    result = mux(op_funct3.eq(0b110), a | b, result)
    result = mux(op_funct3.eq(0b111), a & b, result)
    return result


def branch_taken(funct3, rs1, rs2):
    taken = rs1.eq(rs2)                                   # beq
    taken = mux(funct3.eq(0b001), rs1.ne(rs2), taken)     # bne
    taken = mux(funct3.eq(0b100), rs1.slt(rs2), taken)    # blt
    taken = mux(funct3.eq(0b101), rs1.sge(rs2), taken)    # bge
    taken = mux(funct3.eq(0b110), rs1.ult(rs2), taken)    # bltu
    taken = mux(funct3.eq(0b111), rs1.uge(rs2), taken)    # bgeu
    return taken


def load_extend(funct3, addr_low, word):
    """Byte/half extraction + extension for load results."""
    byte_sel = addr_low[1:0]
    byte = (word >> cat(byte_sel, const(0, 3))).trunc(8)
    half = mux(addr_low[1], word[31:16], word[15:0])
    result = word
    result = mux(funct3.eq(0b000), byte.sext(XLEN), result)   # lb
    result = mux(funct3.eq(0b100), byte.pad(XLEN), result)    # lbu
    result = mux(funct3.eq(0b001), half.sext(XLEN), result)   # lh
    result = mux(funct3.eq(0b101), half.pad(XLEN), result)    # lhu
    return result


def store_merge(funct3, addr_low, old_word, data):
    """Read-modify-write merge for sub-word stores."""
    byte_sel = addr_low[1:0]
    shift = cat(byte_sel, const(0, 3))
    byte_mask = (const(0xFF, XLEN) << shift).trunc(XLEN)
    half_mask = mux(addr_low[1], const(0xFFFF0000, XLEN),
                    const(0x0000FFFF, XLEN))
    byte_val = ((data[7:0].pad(XLEN)) << shift).trunc(XLEN)
    half_val = mux(addr_low[1], cat(data[15:0], const(0, 16)),
                   data[15:0].pad(XLEN))
    merged = data
    merged = mux(funct3.eq(0b000),
                 (old_word & ~byte_mask) | byte_val, merged)
    merged = mux(funct3.eq(0b001),
                 (old_word & ~half_mask) | half_val, merged)
    return merged


class PipelinedMultiplier(Module):
    """3-cycle multiplier pipeline, annotated retimed (Section IV-C3).

    Free-running (no enables): feed (valid, a, b, high/signed controls)
    and the result emerges 3 cycles later with ``valid_out``.  Handles
    MUL/MULH/MULHU/MULHSU via 33-bit operand extension.
    """

    LATENCY = 3

    def build(self):
        self.mark_retimed(self.LATENCY)
        valid = self.input("valid", 1)
        a = self.input("a", XLEN)
        b = self.input("b", XLEN)
        # funct3 semantics: 000 mul, 001 mulh, 010 mulhsu, 011 mulhu
        funct3 = self.input("funct3", 2)
        a_signed = funct3.eq(0b01) | funct3.eq(0b10)
        b_signed = funct3.eq(0b01)
        a_ext = mux(a_signed, a.sext(33), a.pad(33))
        b_ext = mux(b_signed, b.sext(33), b.pad(33))
        want_high = funct3.ne(0b00)

        # stage 1: partial product of the low half
        p1 = self.reg("p1", 64)
        p1 <<= (a_ext * b_ext).trunc(64)
        hi1 = self.reg("hi1", 1)
        hi1 <<= want_high
        v1 = self.reg("v1", 1)
        v1 <<= valid
        # stage 2/3: pipeline the (already complete) product — the CAD
        # tool is free to rebalance the multiplier array across these
        # registers, which is exactly why they are unmatchable.
        p2 = self.reg("p2", 64)
        p2 <<= p1
        hi2 = self.reg("hi2", 1)
        hi2 <<= hi1
        v2 = self.reg("v2", 1)
        v2 <<= v1
        p3 = self.reg("p3", 64)
        p3 <<= p2
        hi3 = self.reg("hi3", 1)
        hi3 <<= hi2
        v3 = self.reg("v3", 1)
        v3 <<= v2

        self.output("valid_out", 1, v3)
        self.output("result", XLEN,
                    mux(hi3, p3[63:32], p3[31:0]))


class IterativeDivider(Module):
    """Restoring divider: one subtract/compare per cycle, 32 + 2 cycles.

    Implements DIV/DIVU/REM/REMU with RISC-V corner-case semantics
    (division by zero, signed overflow).
    """

    def build(self):
        start = self.input("start", 1)
        a = self.input("a", XLEN)
        b = self.input("b", XLEN)
        # funct3: 100 div, 101 divu, 110 rem, 111 remu
        funct3 = self.input("funct3", 3)

        busy = self.reg("busy", 1)
        count = self.reg("count", 6)
        dividend = self.reg("dividend", XLEN)     # shifting left
        divisor = self.reg("divisor", XLEN)
        remainder = self.reg("remainder", XLEN + 1)
        quotient = self.reg("quotient", XLEN)
        neg_q = self.reg("neg_q", 1)
        neg_r = self.reg("neg_r", 1)
        want_rem = self.reg("want_rem", 1)
        b_zero = self.reg("b_zero", 1)
        a_orig = self.reg("a_orig", XLEN)
        done_r = self.reg("done_r", 1)
        done_r <<= 0

        signed_op = ~funct3[0]
        a_neg = a[31] & signed_op
        b_neg = b[31] & signed_op
        a_abs = mux(a_neg, (const(0, XLEN) - a).trunc(XLEN), a)
        b_abs = mux(b_neg, (const(0, XLEN) - b).trunc(XLEN), b)

        with self.when(start & ~busy):
            busy <<= 1
            count <<= XLEN
            dividend <<= a_abs
            divisor <<= b_abs
            remainder <<= 0
            quotient <<= 0
            neg_q <<= a_neg ^ b_neg
            neg_r <<= a_neg
            want_rem <<= funct3[1]
            b_zero <<= b.eq(0)
            a_orig <<= a

        shifted = cat(remainder[XLEN - 1:0], dividend[31])
        trial = (shifted - divisor.pad(XLEN + 1)).trunc(XLEN + 2)
        ge = shifted.uge(divisor.pad(XLEN + 1))
        with self.when(busy):
            with self.when(count.ne(0)):
                remainder <<= mux(ge, trial.trunc(XLEN + 1), shifted)
                quotient <<= cat(quotient[30:0], ge)
                dividend <<= (dividend << 1).trunc(XLEN)
                count <<= count - 1
            with self.otherwise():
                busy <<= 0
                done_r <<= 1

        q_mag = quotient
        r_mag = remainder.trunc(XLEN)
        q_signed = mux(neg_q, (const(0, XLEN) - q_mag).trunc(XLEN), q_mag)
        r_signed = mux(neg_r, (const(0, XLEN) - r_mag).trunc(XLEN), r_mag)
        # RISC-V division-by-zero semantics: quotient = all ones (signed
        # -1), remainder = the original dividend.
        quot_out = mux(b_zero, const(0xFFFFFFFF, XLEN), q_signed)
        rem_out = mux(b_zero, a_orig, r_signed)
        result = mux(want_rem, rem_out, quot_out)

        self.output("busy", 1, busy)
        self.output("done", 1, done_r)
        self.output("result", XLEN, result)

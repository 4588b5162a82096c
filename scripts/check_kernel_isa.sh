#!/bin/sh
# Checks where an an2 library uses instructions beyond baseline x86-64:
# popcnt, and BMI2's pdep, pext, bzhi, mulx, rorx, sarx, shlx and shrx.
# They may appear only in PIM's popcnt/BMI2 kernel (functions of
# namespace an2::pim_kernel::popcnt_bmi2, which PimMatcher runs only on
# a CPU that has both), and that kernel must use popcnt and pdep, or it
# was compiled as a second portable copy. Anywhere else they would stop
# the library on a CPU without them.
#
#   scripts/check_kernel_isa.sh build/src/liban2.a
#
# Exits 1, listing the offending functions, when either check fails.
# (tzcnt is not counted: GCC emits `rep bsf`, which runs as bsf on every
# x86-64.)
set -eu
lib=${1:?usage: check_kernel_isa.sh LIBRARY}
objdump -d --no-show-raw-insn -C "$lib" | awk '
    /^[0-9a-f]+ <.*>:$/ { fn = $0; next }
    {
        split($0, field, "\t")
        split(field[2], word, " ")
        op = word[1]
    }
    op ~ /^(popcnt|pdep|pext|bzhi|mulx|rorx|sarx|shlx|shrx)$/ {
        if (index(fn, "an2::pim_kernel::popcnt_bmi2::") == 0) {
            print "outside the popcnt/BMI2 kernel: " op " in " fn
            bad++
        } else {
            kernel[op]++
        }
    }
    END {
        if (!kernel["popcnt"] || !kernel["pdep"]) {
            print "the popcnt/BMI2 kernel has " kernel["popcnt"] + 0 \
                  " popcnt and " kernel["pdep"] + 0 " pdep instructions"
            bad++
        }
        if (bad) exit 1
        print "ok: popcnt " kernel["popcnt"] ", pdep " kernel["pdep"] \
              ", all inside an2::pim_kernel::popcnt_bmi2"
    }'

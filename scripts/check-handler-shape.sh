#!/bin/sh
# Check the shape of the block engine's micro-op handlers in a release
# binary (DESIGN.md §14): there must be exactly 36 functions named
# `softcache_sim::uop::h_*`, each must hand on to the next slot through an
# indirect tail jump (`jmp *`), and none may `call` anything but the
# bounds-check panics, which go through the dynamic symbol table
# (`_DYNAMIC`). A handler that grows another call has lost its tail jump
# or stopped folding `AluOp::eval` to its one operation.
#
# Usage: scripts/check-handler-shape.sh [BINARY]
# (default: target/release/softcache-run)
set -eu
bin=${1:-target/release/softcache-run}
# The body handlers in `crates/sim/src/uop.rs`: 26 from `alu_handlers!`
# (13 operations in register and immediate form), five loads, three
# stores, `h_lui` and `h_nop`.
want=36
objdump -d -C "$bin" | awk -v want="$want" '
    /^[0-9a-f]+ <softcache_sim::uop::h_[a-z_]+>:$/ {
        name = substr($2, 2, length($2) - 3)
        names[++n] = name
        next
    }
    /^[0-9a-f]+ </ { name = ""; next }
    name == "" { next }
    /\tjmp +\*/ { jumps[name] = 1 }
    /\tcall / && !/<_DYNAMIC/ {
        calls[name] = 1
        print "unexpected call in " name ": " $0
    }
    END {
        ok = 0
        for (i = 1; i <= n; i++) {
            if (!(names[i] in jumps)) print "no indirect tail jump in " names[i]
            else if (!(names[i] in calls)) ok++
        }
        printf "%d handlers, %d with a jmp * and no call but the panics (want %d)\n", n, ok, want
        exit !(n == want && ok == want)
    }
'

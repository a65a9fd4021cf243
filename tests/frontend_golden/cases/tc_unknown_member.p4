
            struct ctx_t { bit<1> f; }
            control C(cmpt_out o, in ctx_t ctx) {
                apply { if (ctx.nope == 1) { return; } }
            }
            
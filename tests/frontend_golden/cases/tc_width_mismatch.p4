
            struct ctx_t { bit<8> a; bit<16> b; }
            control C(in ctx_t ctx) {
                apply { if (ctx.a == ctx.b) { return; } }
            }
            
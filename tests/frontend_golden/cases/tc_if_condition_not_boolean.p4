
            struct ctx_t { bit<8> f; }
            control C(in ctx_t ctx) {
                apply { if (ctx.f) { return; } }
            }
            
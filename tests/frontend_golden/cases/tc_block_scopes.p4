
            struct ctx_t { bit<8> f; bit<2> fmt; }
            control C(in ctx_t ctx) {
                bit<8> outer = 1;
                action bump(in bit<8> by) { outer = by; inner = 1; }
                apply {
                    if (ctx.f == 1) { bit<8> inner = 2; outer = inner; } else { outer = inner; }
                    { bit<16> outer = 3; outer = 16w4; }
                    switch (ctx.fmt) {
                        0: { bit<8> c = 1; outer = c; }
                        default: { outer = c; }
                    }
                    outer = 8w5;
                    bump(outer);
                    by = 1;
                }
            }
            
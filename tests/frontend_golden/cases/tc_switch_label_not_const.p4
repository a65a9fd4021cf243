
            struct ctx_t { bit<2> fmt; bit<2> other; }
            control C(in ctx_t ctx) {
                apply {
                    switch (ctx.fmt) {
                        ctx.other: { return; }
                    }
                }
            }
            
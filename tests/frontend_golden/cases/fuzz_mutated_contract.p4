
            header h_t { @semantic("rss_hash") bit<32> rss; }
            struct ctx_t { bit<1> f; }
            struct m_t { h_t h; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply { if (ctx.f == 1) { o.emit(m.h) } }
            }
        
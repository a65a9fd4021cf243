
            header a_t { bit<8> x; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in m_t m) {
                apply { o.emit(m); }
            }
            
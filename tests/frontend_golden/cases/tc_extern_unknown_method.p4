
            extern dma_engine { void flush(in bit<8> q); }
            control C(dma_engine e) {
                apply { e.nope(); }
            }
            
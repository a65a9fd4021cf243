
            control C(cmpt_out o) {
                apply { nothere(); }
            }
            
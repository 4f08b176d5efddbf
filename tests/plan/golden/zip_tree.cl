float helper__l0(float v) { return v * 0.5f; }
float halve__l0(float x, float a) { return helper__l0(x) + a; }
float helper__l1(float v) { return v - 1.0f; }
int trunc_scale__l1(float x, int k) { return (int)helper__l1(x) * k; }
float helper__r0(float v) { return v * v; }
float weigh__r0(float x, float w) { return helper__r0(x) * w; }
float helper__z(float v) { return v + 2.0f; }
float blend__z(int x, float y, float m) { return helper__z(y) * m + x; }
float helper__p0(float v) { return v * v; }
float weigh__p0(float x, float w) { return helper__p0(x) * w; }
float helper__p1(float v) { return v * 0.5f; }
float halve__p1(float x, float a) { return helper__p1(x) + a; }
float SCL_FUSED(float SCL_L, float SCL_R, float SCL_L0_0, int SCL_L1_0, float SCL_R0_0, float SCL_Z_0, float SCL_P0_0, float SCL_P1_0) {
    return halve__p1((float)(weigh__p0((float)(blend__z((int)(trunc_scale__l1((float)(halve__l0(SCL_L, SCL_L0_0)), SCL_L1_0)), (float)(weigh__r0(SCL_R, SCL_R0_0)), SCL_Z_0)), SCL_P0_0)), SCL_P1_0);
}


__kernel void skelcl_zip(__global const float* SCL_LEFT,
                         __global const float* SCL_RIGHT,
                         __global float* SCL_OUT,
                         const unsigned int SCL_N,
                         const unsigned int SCL_LEFT_OFFSET,
                         const unsigned int SCL_RIGHT_OFFSET, const float SCL_EXTRA0, const int SCL_EXTRA1, const float SCL_EXTRA2, const float SCL_EXTRA3, const float SCL_EXTRA4, const float SCL_EXTRA5) {
    size_t SCL_ID = get_global_id(0);
    if (SCL_ID < SCL_N) {
        SCL_OUT[SCL_ID] = SCL_FUSED(SCL_LEFT[SCL_ID + SCL_LEFT_OFFSET],
                                 SCL_RIGHT[SCL_ID + SCL_RIGHT_OFFSET], SCL_EXTRA0, SCL_EXTRA1, SCL_EXTRA2, SCL_EXTRA3, SCL_EXTRA4, SCL_EXTRA5);
    }
}

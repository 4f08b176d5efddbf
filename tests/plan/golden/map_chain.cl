float helper__m0(float v) { return v * 0.5f; }
float halve__m0(float x, float a) { return helper__m0(x) + a; }
float helper__m1(float v) { return v - 1.0f; }
int trunc_scale__m1(float x, int k) { return (int)helper__m1(x) * k; }
float helper__m2(int v) { return v + 0.25f; }
float affine__m2(int x, float s, float t) { return helper__m2(x) * s + t; }
float SCL_FUSED(float SCL_X, float SCL_M0_0, int SCL_M1_0, float SCL_M2_0, float SCL_M2_1) {
    return affine__m2((int)(trunc_scale__m1((float)(halve__m0(SCL_X, SCL_M0_0)), SCL_M1_0)), SCL_M2_0, SCL_M2_1);
}


__kernel void skelcl_map(__global const float* SCL_IN,
                         __global float* SCL_OUT,
                         const unsigned int SCL_N,
                         const unsigned int SCL_OFFSET, const float SCL_EXTRA0, const int SCL_EXTRA1, const float SCL_EXTRA2, const float SCL_EXTRA3) {
    size_t SCL_ID = get_global_id(0);
    if (SCL_ID < SCL_N) {
        SCL_OUT[SCL_ID] = SCL_FUSED(SCL_IN[SCL_ID + SCL_OFFSET], SCL_EXTRA0, SCL_EXTRA1, SCL_EXTRA2, SCL_EXTRA3);
    }
}
